// Command amped-plan answers the inverse question: how much machine does a
// training deadline need, and where should the next hardware dollar go?
//
// Size a cluster for a deadline:
//
//	amped-plan -model megatron-145b -target-days 20 -batch 8192 -num-batches 17880
//
// Rank hardware investments for a fixed design point (sensitivity):
//
//	amped-plan -sensitivity -model megatron-145b -nodes 128 -tp-intra 8 -dp-inter 128
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"amped/internal/efficiency"
	"amped/internal/hardware"
	"amped/internal/model"
	"amped/internal/parallel"
	"amped/internal/plan"
	"amped/internal/report"
	"amped/internal/sensitivity"
	"amped/internal/transformer"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "amped-plan:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("amped-plan", flag.ContinueOnError)
	var (
		modelName  = fs.String("model", "megatron-145b", "model preset")
		accelName  = fs.String("accel", "a100", "accelerator preset")
		accels     = fs.Int("accels", 8, "accelerators per node")
		batch      = fs.Int("batch", 8192, "global batch size")
		numBatches = fs.Int("num-batches", 17880, "batches in the training run")
		targetDays = fs.Float64("target-days", 30, "training-time deadline (plan mode)")
		maxNodes   = fs.Int("max-nodes", 2048, "largest machine to consider (plan mode)")
		sens       = fs.Bool("sensitivity", false, "rank knob elasticities instead of sizing a machine")
		recipe     = fs.Bool("recipe", false, "recommend the full training recipe (mapping, N_ub, ZeRO, ckpt) for a fixed machine")
		nodes      = fs.Int("nodes", 128, "node count (sensitivity mode)")
		tpIntra    = fs.Int("tp-intra", 8, "TP within a node (sensitivity mode)")
		ppInter    = fs.Int("pp-inter", 1, "PP across nodes (sensitivity mode)")
		dpInter    = fs.Int("dp-inter", 0, "DP across nodes (sensitivity mode; 0 = all remaining)")
		step       = fs.Float64("step", 0.01, "relative perturbation (sensitivity mode)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	m, err := transformer.Preset(*modelName)
	if err != nil {
		return err
	}
	accel, err := hardware.AcceleratorPreset(*accelName)
	if err != nil {
		return err
	}
	template := hardware.System{
		Name:          fmt.Sprintf("nodes of %d x %s", *accels, accel.Name),
		Accel:         accel,
		Nodes:         1, // plan mode overrides; sensitivity mode sets below
		AccelsPerNode: *accels,
		Intra:         hardware.NVLinkA100(),
		Inter:         hardware.InfinibandHDR(),
		NICsPerNode:   *accels,
	}

	if *sens {
		return runSensitivity(out, &m, template, *nodes, *tpIntra, *ppInter, *dpInter, *batch, *step)
	}
	if *recipe {
		template.Nodes = *nodes
		r, err := plan.Tune(plan.TuneRequest{
			Model:       &m,
			System:      &template,
			GlobalBatch: *batch,
			NumBatches:  *numBatches,
		})
		if err != nil {
			return err
		}
		st := r.Stats
		fmt.Fprintf(out, "recipe for %v on %d x %d accelerators: optimum over %d (mapping, N_ub) cells\n",
			&m, *nodes, *accels, st.CellsTotal)
		fmt.Fprintf(out, "  priced        %d\n", st.CellsExpanded)
		fmt.Fprintf(out, "  no fit        %d (over memory at every ladder step)\n", st.CellsPrunedMemory)
		fmt.Fprintf(out, "  mapping:      %v\n", r.Mapping)
		fmt.Fprintf(out, "  microbatches: %d\n", r.Microbatches)
		fmt.Fprintf(out, "  memory levers: ZeRO-%d, checkpointing=%v\n", r.ZeROStage, r.Checkpointing)
		fmt.Fprintf(out, "  per GPU:      %v of %v\n", r.Footprint.Total(), template.Accel.Memory)
		fmt.Fprintf(out, "  predicted:    %v (%.1f TFLOP/s/GPU)\n",
			r.Breakdown.TotalTime(), r.Breakdown.TFLOPSPerGPU())
		return nil
	}

	sized, err := plan.MinimumNodes(plan.CapacityRequest{
		Model:    &m,
		Template: template,
		Training: model.Training{
			Batch:      parallel.Batch{Global: *batch},
			NumBatches: *numBatches,
		},
		TargetDays: *targetDays,
		MaxNodes:   *maxNodes,
		Eff:        efficiency.Default(),
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "deadline:  %.1f days for %v\n", *targetDays, &m)
	fmt.Fprintf(out, "plan:      %d nodes (%d accelerators), mapping %v\n",
		sized.Nodes, sized.Accelerators, sized.Mapping)
	fmt.Fprintf(out, "predicted: %.1f days at %.1f TFLOP/s/GPU\n\n",
		sized.Days, sized.Breakdown.TFLOPSPerGPU())
	if len(sized.Rejected) > 0 {
		tab := report.NewTable("scaling curve (sizes that miss the deadline)",
			"nodes", "best days")
		for _, c := range sized.Rejected {
			days := fmt.Sprintf("%.1f", c.Days)
			if c.Days < 0 {
				days = "infeasible"
			}
			tab.AddRowf(c.Nodes, days)
		}
		fmt.Fprint(out, tab)
	}
	return nil
}

func runSensitivity(out io.Writer, m *transformer.Model, template hardware.System,
	nodes, tpIntra, ppInter, dpInter, batch int, step float64) error {
	template.Nodes = nodes
	if dpInter == 0 {
		dpInter = nodes / ppInter
	}
	est := model.Estimator{
		Model:  m,
		System: &template,
		Mapping: parallel.Mapping{
			TPIntra: tpIntra, PPInter: ppInter, DPInter: dpInter,
		},
		Training: model.Training{Batch: parallel.Batch{Global: batch}},
	}
	results, err := sensitivity.Analyze(est, step)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "sensitivity of %v on %d x %d accelerators, mapping %v\n\n",
		m, nodes, template.AccelsPerNode, est.Mapping)
	tab := report.NewTable("time elasticity per knob (negative = investment pays)",
		"knob", "elasticity", "perturbed time")
	for _, r := range results {
		tab.AddRow(string(r.Knob),
			fmt.Sprintf("%+.4f", r.Elasticity),
			r.Perturbed.String())
	}
	fmt.Fprint(out, tab)
	if top := sensitivity.TopInvestment(results); top != "" {
		fmt.Fprintf(out, "\nbest investment: %s\n", top)
	}
	if sensitivity.CommBound(results) {
		fmt.Fprintln(out, "verdict: communication-bound")
	} else {
		fmt.Fprintln(out, "verdict: compute-bound")
	}
	return nil
}
