package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"amped/internal/hardware"
	"amped/internal/plan"
	"amped/internal/transformer"
)

func TestCapacityMode(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-target-days", "40", "-max-nodes", "512"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"plan:", "predicted:", "nodes"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCapacityInfeasible(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-target-days", "0.001", "-max-nodes", "16"}, &buf); err == nil {
		t.Error("impossible deadline produced a plan")
	}
}

func TestSensitivityMode(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-sensitivity", "-nodes", "128", "-tp-intra", "8"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"time elasticity", "peak MAC throughput", "verdict:", "best investment:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSensitivityWithPipeline(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-sensitivity", "-nodes", "128", "-tp-intra", "8", "-pp-inter", "8"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "bubble ratio R") {
		t.Errorf("pipeline sensitivity missing bubble knob:\n%s", buf.String())
	}
}

func TestSizingBadInputs(t *testing.T) {
	for _, args := range [][]string{
		{"-recipe", "-model", "nope"},
		{"-recipe", "-accel", "nope"},
		{"-sensitivity", "-tp-intra", "3"},
		{"-recipe", "-batches", "2048,4096"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestRecipeMode pins the printed recipe to the recipe search's answer for
// Megatron-530B on the Case Study I machine at batch 2520.
func TestRecipeMode(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-recipe", "-model", "megatron-530b", "-nodes", "128",
		"-batches", "2520", "-num-batches", "100"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	m := transformer.Megatron530B()
	sys := hardware.CaseStudy1System()
	want, err := plan.Tune(plan.TuneRequest{Model: &m, System: &sys, GlobalBatch: 2520, NumBatches: 100})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, line := range []string{
		fmt.Sprintf("optimum over %d (mapping, N_ub) cells\n", want.Stats.CellsTotal),
		fmt.Sprintf("  priced        %d\n", want.Stats.CellsExpanded),
		fmt.Sprintf("  mapping:      %v\n", want.Mapping),
		fmt.Sprintf("  microbatches: %d\n", want.Microbatches),
		fmt.Sprintf("  memory levers: ZeRO-%d, checkpointing=%v\n", want.ZeROStage, want.Checkpointing),
		fmt.Sprintf("  predicted:    %v (", want.Breakdown.TotalTime()),
	} {
		if !strings.Contains(out, line) {
			t.Errorf("output missing %q:\n%s", line, out)
		}
	}
	if want.Mapping.String() != "TP1x128 PP1x1 DP8x1" || want.Microbatches != 15 ||
		want.ZeROStage != 1 || !want.Checkpointing {
		t.Errorf("530B recipe %v, want TP1x128 PP1x1 DP8x1 N_ub=15 ZeRO-1 +ckpt", want)
	}
}
