package main

import (
	"fmt"
	"io"

	"amped/internal/efficiency"
	"amped/internal/hardware"
	"amped/internal/model"
	"amped/internal/parallel"
	"amped/internal/plan"
	"amped/internal/report"
	"amped/internal/sensitivity"
	"amped/internal/transformer"
)

// runRecipe prints the exact fastest training recipe (mapping, N_ub, ZeRO
// stage, checkpointing) that fits the machine at one batch size.
func runRecipe(out io.Writer, m *transformer.Model, sys hardware.System, batch, numBatches int) error {
	r, err := plan.Tune(plan.TuneRequest{
		Model:       m,
		System:      &sys,
		GlobalBatch: batch,
		NumBatches:  numBatches,
	})
	if err != nil {
		return err
	}
	st := r.Stats
	fmt.Fprintf(out, "recipe for %v on %d x %d accelerators: optimum over %d (mapping, N_ub) cells\n",
		m, sys.Nodes, sys.AccelsPerNode, st.CellsTotal)
	fmt.Fprintf(out, "  priced        %d\n", st.CellsExpanded)
	fmt.Fprintf(out, "  no fit        %d (over memory at every ladder step)\n", st.CellsPrunedMemory)
	fmt.Fprintf(out, "  mapping:      %v\n", r.Mapping)
	fmt.Fprintf(out, "  microbatches: %d\n", r.Microbatches)
	fmt.Fprintf(out, "  memory levers: ZeRO-%d, checkpointing=%v\n", r.ZeROStage, r.Checkpointing)
	fmt.Fprintf(out, "  per GPU:      %v of %v\n", r.Footprint.Total(), sys.Accel.Memory)
	fmt.Fprintf(out, "  predicted:    %v (%.1f TFLOP/s/GPU)\n",
		r.Breakdown.TotalTime(), r.Breakdown.TFLOPSPerGPU())
	return nil
}

// runCapacity sizes the smallest power-of-two machine of the template's
// nodes that meets the training deadline, and prints the scaling curve of
// the sizes that miss it.
func runCapacity(out io.Writer, m *transformer.Model, template hardware.System,
	batch, numBatches int, targetDays float64, maxNodes int) error {
	sized, err := plan.MinimumNodes(plan.CapacityRequest{
		Model:    m,
		Template: template,
		Training: model.Training{
			Batch:      parallel.Batch{Global: batch},
			NumBatches: numBatches,
		},
		TargetDays: targetDays,
		MaxNodes:   maxNodes,
		Eff:        efficiency.Default(),
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "deadline:  %.1f days for %v\n", targetDays, m)
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

// runSensitivity ranks the hardware knobs by the elasticity of one
// mapping's batch time: where the next hardware dollar should go.
func runSensitivity(out io.Writer, m *transformer.Model, sys hardware.System,
	tpIntra, ppInter, dpInter, batch int, step float64) error {
	if dpInter == 0 && ppInter > 0 {
		dpInter = sys.Nodes / ppInter
	}
	est := model.Estimator{
		Model:  m,
		System: &sys,
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
		m, sys.Nodes, sys.AccelsPerNode, est.Mapping)
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
