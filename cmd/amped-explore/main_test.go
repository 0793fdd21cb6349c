package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestExploreRun(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-batches", "8192", "-top", "5", "-num-batches", "100"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fastest 5 configurations", "best:", "TFLOP/s/GPU"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The known Case-Study-I winner shape: intra-node TP, inter-node DP.
	if !strings.Contains(out, "best: TP8x1") {
		t.Errorf("unexpected best mapping:\n%s", out)
	}
}

func TestExploreCSVAndMemory(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-batches", "8192", "-top", "3", "-csv", "-memory", "-num-batches", "10"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "mapping,batch,N_ub") {
		t.Errorf("no CSV header:\n%s", out)
	}
	if !strings.Contains(out, "true") && !strings.Contains(out, "false") {
		t.Errorf("memory column missing:\n%s", out)
	}
}

func TestExploreMultipleBatches(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-batches", "4096, 8192", "-top", "2", "-num-batches", "10"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2 batch sizes") {
		t.Errorf("batch-size parsing:\n%s", buf.String())
	}
}

func TestExploreErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-model", "nope"}, &buf); err == nil {
		t.Error("unknown model accepted")
	}
	if err := run([]string{"-batches", "abc"}, &buf); err == nil {
		t.Error("junk batch list accepted")
	}
	if err := run([]string{"-accel", "nope"}, &buf); err == nil {
		t.Error("unknown accelerator accepted")
	}
}

func TestExploreHeatmap(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-batches", "4096,8192", "-top", "4", "-heatmap", "-num-batches", "100"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "training days (cold = fast)") {
		t.Errorf("heatmap missing:\n%s", out)
	}
	if !strings.Contains(out, "scale:") {
		t.Errorf("heatmap scale missing:\n%s", out)
	}
	// Single batch: no heatmap even with the flag.
	buf.Reset()
	if err := run([]string{"-batches", "4096", "-heatmap", "-num-batches", "100"}, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "cold = fast") {
		t.Error("heatmap rendered for a single batch size")
	}
}

func TestExploreExpertParallel(t *testing.T) {
	var buf bytes.Buffer
	// 64 power-of-two nodes so the pow2 enumeration has mappings.
	err := run([]string{"-model", "glam", "-accel", "h100", "-nodes", "64",
		"-batches", "8192", "-top", "3", "-expert-parallel", "-num-batches", "10"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "+EP") {
		t.Errorf("expert parallelism not applied:\n%s", buf.String())
	}
}

func TestExploreReliability(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-batches", "8192", "-top", "3", "-num-batches", "100",
		"-accel-mtbf", "5e6", "-node-mtbf", "2e7", "-ckpt-gbs", "2"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"goodput", "exp-days", "days expected"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// A healthy run must not grow the goodput columns.
	buf.Reset()
	if err := run([]string{"-batches", "8192", "-top", "3", "-num-batches", "100"}, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "goodput") {
		t.Errorf("goodput column rendered without reliability flags:\n%s", buf.String())
	}
}

func TestExploreReliabilityErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-accel-mtbf", "5e6", "-optimizer", "nope"}, &buf); err == nil {
		t.Error("unknown optimizer accepted")
	}
	if err := run([]string{"-accel-mtbf", "5e6", "-ckpt-gbs", "0"}, &buf); err == nil {
		t.Error("failures without checkpoint bandwidth accepted")
	}
}

// TestExploreSolve checks that the planner path prints its cell statistics
// and lands on the same best line the exhaustive sweep prints for the same
// scenario.
func TestExploreSolve(t *testing.T) {
	args := []string{"-nodes", "8", "-batches", "1024,2048", "-num-batches", "100"}
	var sweep bytes.Buffer
	if err := run(append([]string{"-top", "1"}, args...), &sweep); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(append([]string{"-solve"}, args...), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"optimum over", "priced", "infeasible", "compute floor", "best: "} {
		if !strings.Contains(out, want) {
			t.Errorf("solve output missing %q:\n%s", want, out)
		}
	}
	// The sweep's best line reads "best: <mapping> at batch <B> -> ..."; the
	// solve line inserts an N_ub clause before the arrow. Compare the shared
	// mapping-and-batch prefix.
	wantBest := sweep.String()[strings.Index(sweep.String(), "best: "):]
	wantBest = strings.TrimSpace(strings.SplitN(wantBest, "\n", 2)[0])
	if prefix := wantBest[:strings.Index(wantBest, " -> ")]; !strings.Contains(out, prefix) {
		t.Errorf("solve best diverges from sweep best %q:\n%s", wantBest, out)
	}
}

// TestExploreHetero drives the mixed-fleet planner end to end from the CLI.
func TestExploreHetero(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-nodes", "2", "-accels", "4", "-batches", "512",
		"-num-batches", "10", "-hetero", "a100:4,h100:4"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"hetero fleet a100:4,h100:4 (1f1b)", "hetero best: ",
		"a100", "h100", "pipeline stages",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("hetero output missing %q:\n%s", want, out)
		}
	}
}

func TestExploreHeteroErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-hetero", "tpu9000:4"}, &buf); err == nil {
		t.Error("unknown pool preset accepted")
	}
	if err := run([]string{"-hetero", "a100"}, &buf); err == nil {
		t.Error("pool without a count accepted")
	}
	if err := run([]string{"-hetero", "a100:0"}, &buf); err == nil {
		t.Error("zero-count pool accepted")
	}
	if err := run([]string{"-hetero", "a100:4", "-schedule", "interleaved"}, &buf); err == nil {
		t.Error("unknown schedule accepted")
	}
}

func TestExploreInterrupted(t *testing.T) {
	// A pre-cancelled context exercises the SIGINT path deterministically:
	// the run must finish cleanly and label its output as partial.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	if err := runCtx(ctx, []string{"-batches", "8192", "-num-batches", "100"}, &buf); err != nil {
		t.Fatalf("interrupted run should return nil, got %v", err)
	}
	if !strings.Contains(buf.String(), "partial sweep") {
		t.Errorf("interrupted output not labeled partial:\n%s", buf.String())
	}
}
