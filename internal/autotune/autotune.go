// Package autotune searches the joint training-recipe space — parallelism
// mapping, microbatch schedule, ZeRO stage, activation checkpointing —
// under memory feasibility, and recommends the fastest complete recipe for
// a model on a machine. It composes the exploration engine, the memory
// model and the analytical estimator into the one call a practitioner
// actually wants: "how should I run this?".
package autotune

import (
	"errors"
	"fmt"

	"amped/internal/efficiency"
	"amped/internal/explore"
	"amped/internal/hardware"
	"amped/internal/memkit"
	"amped/internal/model"
	"amped/internal/parallel"
	"amped/internal/precision"
	"amped/internal/transformer"
)

// Request frames the tuning problem.
type Request struct {
	// Model is the transformer to train.
	Model *transformer.Model
	// System is the machine.
	System *hardware.System
	// GlobalBatch is the training batch (fixed by convergence concerns,
	// so not searched).
	GlobalBatch int
	// NumBatches sizes the run for absolute times (0 = one batch).
	NumBatches int
	// Eff is the efficiency model (nil = default).
	Eff efficiency.Model
	// MemoryReserve holds back a fraction of device memory (default 0.1).
	MemoryReserve float64
	// MaxCandidates caps the mappings examined after time-sorting the
	// unconstrained sweep (default 64) — memory evaluation per candidate
	// recipe is the expensive part.
	MaxCandidates int
}

// Recipe is one complete, feasible training configuration.
type Recipe struct {
	// Mapping is the parallelism assignment.
	Mapping parallel.Mapping
	// Microbatches is the tuned N_ub.
	Microbatches int
	// ZeROStage and Checkpointing are the memory levers engaged (the
	// search prefers recipes that need neither).
	ZeROStage     int
	Checkpointing bool
	// Breakdown is the evaluated performance.
	Breakdown *model.Breakdown
	// Footprint is the per-accelerator memory (worst pipeline stage).
	Footprint memkit.Footprint
}

// String renders the recipe.
func (r Recipe) String() string {
	extras := ""
	if r.ZeROStage > 0 {
		extras += fmt.Sprintf(" ZeRO-%d", r.ZeROStage)
	}
	if r.Checkpointing {
		extras += " +ckpt"
	}
	return fmt.Sprintf("%v N_ub=%d%s -> %v (%v/GPU)",
		r.Mapping, r.Microbatches, extras, r.Breakdown.TotalTime(), r.Footprint.Total())
}

// validate checks the request.
func (r *Request) validate() error {
	if r == nil {
		return errors.New("autotune: nil request")
	}
	if err := r.Model.Validate(); err != nil {
		return err
	}
	if err := r.System.Validate(); err != nil {
		return err
	}
	if r.GlobalBatch <= 0 {
		return fmt.Errorf("autotune: global batch %d must be positive", r.GlobalBatch)
	}
	if r.MemoryReserve < 0 || r.MemoryReserve >= 1 {
		return fmt.Errorf("autotune: memory reserve %g outside [0,1)", r.MemoryReserve)
	}
	return nil
}

// memoryLadder lists the memory levers from cheapest to most invasive:
// each step trades a little communication or recompute for footprint.
var memoryLadder = []struct {
	zero int
	ckpt bool
}{
	{0, false},
	{1, false},
	{0, true},
	{1, true},
	{2, true},
	{3, true},
}

// Tune searches mappings (time-sorted, unconstrained) and, per mapping, the
// cheapest memory-lever combination whose worst pipeline stage fits. It
// returns the fastest feasible recipe; the error reports the closest miss
// when nothing fits.
func Tune(req Request) (*Recipe, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	eff := req.Eff
	if eff == nil {
		eff = efficiency.Default()
	}
	reserve := req.MemoryReserve
	if reserve == 0 {
		reserve = 0.1
	}
	maxCand := req.MaxCandidates
	if maxCand <= 0 {
		maxCand = 64
	}

	// Stage 1: fast unconstrained sweep to rank mappings by speed.
	points, err := explore.Sweep(explore.Scenario{
		Model:    req.Model,
		System:   req.System,
		Training: model.Training{NumBatches: req.NumBatches},
		Eff:      eff,
	}, explore.Options{
		Batches:          []int{req.GlobalBatch},
		Enumerate:        parallel.EnumerateOptions{PowerOfTwo: true},
		MicrobatchTarget: 128,
	})
	if err != nil {
		return nil, err
	}
	points = explore.TopByTime(points, maxCand)

	// Stage 2: walk the speed ranking; for each mapping re-tune N_ub and
	// climb the memory ladder until the worst stage fits.
	usable := float64(req.System.Accel.Memory) * (1 - reserve)
	for _, p := range points {
		nub, _, err := explore.OptimalMicrobatches(model.Estimator{
			Model:    req.Model,
			System:   req.System,
			Mapping:  p.Mapping,
			Training: model.Training{Batch: parallel.Batch{Global: req.GlobalBatch}, NumBatches: req.NumBatches},
			Eff:      eff,
		})
		if err != nil {
			continue
		}
		batch := parallel.Batch{Global: req.GlobalBatch, Microbatches: nub}
		for _, lever := range memoryLadder {
			cfg := memkit.Config{
				Operands:      bdOperands(),
				Optimizer:     memkit.Adam,
				ZeROStage:     lever.zero,
				Checkpointing: lever.ckpt,
				Schedule:      memkit.OneFOneB,
			}
			stages, err := memkit.StageFootprints(req.Model, p.Mapping, batch, cfg)
			if err != nil {
				break
			}
			worst := stages[0]
			for _, fp := range stages {
				if fp.Total() > worst.Total() {
					worst = fp
				}
			}
			if float64(worst.Total()) > usable {
				continue
			}
			// The ZeRO lever costs communication: re-evaluate with the
			// stage's Eq. 5 overhead so the reported time is honest.
			overhead, err := model.ZeROOverheadForStage(lever.zero)
			if err != nil {
				break
			}
			final, err := (&model.Estimator{
				Model:   req.Model,
				System:  req.System,
				Mapping: p.Mapping,
				Training: model.Training{
					Batch:        batch,
					NumBatches:   req.NumBatches,
					ZeROOverhead: overhead,
				},
				Eff: eff,
			}).Evaluate()
			if err != nil {
				break
			}
			return &Recipe{
				Mapping:       p.Mapping,
				Microbatches:  nub,
				ZeROStage:     lever.zero,
				Checkpointing: lever.ckpt,
				Breakdown:     final,
				Footprint:     worst,
			}, nil
		}
	}
	return nil, fmt.Errorf("autotune: no recipe fits %v per accelerator (examined %d mappings)",
		req.System.Accel.Memory, len(points))
}

// bdOperands is the memory-side precision recipe (mixed precision).
func bdOperands() precision.Operands { return precision.Mixed16() }
