// Package hetero extends AMPeD to heterogeneous accelerators — the
// extension the paper's conclusion claims is straightforward ("AMPeD can be
// easily extended for heterogeneous accelerators") but does not implement.
//
// The natural heterogeneous deployment is pipeline parallelism across
// accelerator generations: each pipeline stage runs on one homogeneous
// group, and the pipeline clocks at its slowest stage. This package
// balances the layer assignment against per-stage speed and evaluates the
// resulting batch time, reusing the homogeneous model's per-layer compute
// accounting.
package hetero

import (
	"errors"
	"fmt"

	"amped/internal/efficiency"
	"amped/internal/eventsim"
	"amped/internal/hardware"
	"amped/internal/parallel"
	"amped/internal/pipesim"
	"amped/internal/precision"
	"amped/internal/transformer"
	"amped/internal/units"
)

// Stage is one homogeneous pipeline stage group.
type Stage struct {
	// Accel is the accelerator type serving this stage.
	Accel hardware.Accelerator
	// TP is the tensor-parallel width inside the stage (divides compute).
	TP int
	// Layers is the number of transformer blocks assigned; Balance fills
	// this in.
	Layers int
}

// Pipeline is a heterogeneous pipeline-parallel deployment.
type Pipeline struct {
	// Model is the transformer being trained.
	Model *transformer.Model
	// Stages are the accelerator groups in pipeline order.
	Stages []Stage
	// Batch is the global batch and microbatch schedule; data parallelism
	// is out of scope for the heterogeneous estimator (DP replicas would
	// simply multiply).
	Batch parallel.Batch
	// Operands sets the precisions (zero value = Mixed16).
	Operands precision.Operands
	// Eff is the microbatch-efficiency model (nil = default).
	Eff efficiency.Model
	// Interconnect carries activations between stages.
	Interconnect hardware.Link
}

// Validate checks the pipeline's structure.
func (p *Pipeline) Validate() error {
	if p == nil {
		return errors.New("hetero: nil pipeline")
	}
	if err := p.Model.Validate(); err != nil {
		return err
	}
	if len(p.Stages) == 0 {
		return errors.New("hetero: no stages")
	}
	if len(p.Stages) > p.Model.Layers {
		return fmt.Errorf("hetero: %d stages exceed %d layers", len(p.Stages), p.Model.Layers)
	}
	total := 0
	for i, s := range p.Stages {
		if err := s.Accel.Validate(); err != nil {
			return fmt.Errorf("hetero: stage %d: %w", i, err)
		}
		if s.TP < 1 {
			return fmt.Errorf("hetero: stage %d: TP %d must be >= 1", i, s.TP)
		}
		if s.Layers < 0 {
			return fmt.Errorf("hetero: stage %d: negative layer count", i)
		}
		total += s.Layers
	}
	if total != 0 && total != p.Model.Layers {
		return fmt.Errorf("hetero: stages hold %d layers, model has %d", total, p.Model.Layers)
	}
	if p.Batch.Global <= 0 {
		return errors.New("hetero: batch must be positive")
	}
	return p.Interconnect.Validate()
}

// operands resolves the pipeline's precisions (zero value = Mixed16).
func (p *Pipeline) operands() precision.Operands {
	if p.Operands == (precision.Operands{}) {
		return precision.Mixed16()
	}
	return p.Operands
}

// stageRate returns a stage's effective MAC throughput for the pipeline's
// operands at the given efficiency: peak x TP / precision passes.
func (p *Pipeline) stageRate(s Stage, eff float64) float64 {
	scale := float64(p.operands().MACScale(s.Accel.MACPrecision))
	return float64(s.Accel.MACRate(eff)) * float64(s.TP) / scale
}

// Balance assigns the model's layers to stages proportionally to their
// effective throughput (largest-remainder rounding, at least one layer per
// stage), minimizing the slowest-stage time under the per-layer-uniform
// cost this model family has. It returns a copy of the pipeline with the
// assignment filled in.
func (p Pipeline) Balance() (Pipeline, error) {
	probe := p
	for i := range probe.Stages {
		probe.Stages[i].Layers = 0
	}
	if err := probe.Validate(); err != nil {
		return Pipeline{}, err
	}
	// Relative speeds at a common reference efficiency; the ratio is what
	// matters and eff cancels for identical curves.
	rates := make([]float64, len(p.Stages))
	var totalRate float64
	for i, s := range p.Stages {
		rates[i] = p.stageRate(s, 1)
		totalRate += rates[i]
	}
	L := p.Model.Layers
	out := p
	out.Stages = make([]Stage, len(p.Stages))
	copy(out.Stages, p.Stages)

	// Largest-remainder apportionment with a 1-layer floor.
	type frac struct {
		idx  int
		frac float64
	}
	assigned := 0
	remainders := make([]frac, len(p.Stages))
	for i := range out.Stages {
		exact := float64(L) * rates[i] / totalRate
		n := int(exact)
		if n < 1 {
			n = 1
		}
		out.Stages[i].Layers = n
		assigned += n
		remainders[i] = frac{idx: i, frac: exact - float64(int(exact))}
	}
	for assigned > L { // the 1-layer floors oversubscribed tiny stages
		// Take from the stage with the most layers.
		maxIdx := 0
		for i := range out.Stages {
			if out.Stages[i].Layers > out.Stages[maxIdx].Layers {
				maxIdx = i
			}
		}
		if out.Stages[maxIdx].Layers <= 1 {
			return Pipeline{}, fmt.Errorf("hetero: %d stages cannot hold %d layers", len(p.Stages), L)
		}
		out.Stages[maxIdx].Layers--
		assigned--
	}
	for assigned < L {
		// Give to the largest remainder, ties to the fastest stage.
		best := -1
		for i, r := range remainders {
			if best == -1 || r.frac > remainders[best].frac ||
				(r.frac == remainders[best].frac && rates[r.idx] > rates[remainders[best].idx]) {
				best = i
			}
		}
		out.Stages[remainders[best].idx].Layers++
		remainders[best].frac = -1
		assigned++
	}
	return out, nil
}

// Result is the heterogeneous evaluation outcome.
type Result struct {
	// PerBatch is the pipelined batch time: N_ub slowest-stage steps plus
	// the fill/drain of the remaining stages.
	PerBatch units.Seconds
	// StageTimes are each stage's per-microbatch forward+backward times.
	StageTimes []units.Seconds
	// Bottleneck is the index of the slowest stage.
	Bottleneck int
	// Efficiency is the microbatch efficiency used.
	Efficiency float64
}

// StageProfile is a balanced pipeline's per-stage timing decomposition —
// the inputs a schedule execution (Simulate) needs, derived exactly as
// Evaluate derives its closed-form estimate (same microbatch defaulting,
// efficiency lookup, per-stage rates and activation volume).
type StageProfile struct {
	// Fwd is each stage's one-microbatch forward compute time
	// (layer MACs x assigned layers / effective rate); the backward is
	// Evaluate's fixed 2x forward.
	Fwd []units.Seconds
	// Comm is the stage-boundary activation transfer time for one
	// microbatch (interconnect latency + activation volume / bandwidth).
	Comm units.Seconds
	// Microbatches is the resolved N_ub (defaulted to the stage count,
	// clamped to the global batch).
	Microbatches int
	// Efficiency is the microbatch efficiency used.
	Efficiency float64
}

// microbatch is what StageTimes and Evaluate share about one microbatch
// of a balanced pipeline.
type microbatch struct {
	// count is the resolved N_ub.
	count int
	// eff is the microbatch efficiency.
	eff float64
	// layerMACs is one layer's MACs for one microbatch.
	layerMACs float64
	// comm is one stage-boundary activation transfer.
	comm float64
}

// perMicrobatch validates the pipeline and its layer assignment, defaults
// N_ub to the stage count and clamps it to the global batch, and prices one
// microbatch's layer work, efficiency and stage-boundary transfer (the
// activations at the operands' activation width, like the homogeneous
// model's Eq. 7).
func (p *Pipeline) perMicrobatch() (microbatch, error) {
	if err := p.Validate(); err != nil {
		return microbatch{}, err
	}
	totalLayers := 0
	for _, s := range p.Stages {
		totalLayers += s.Layers
	}
	if totalLayers != p.Model.Layers {
		return microbatch{}, errors.New("hetero: stages have no layer assignment (call Balance)")
	}
	effModel := p.Eff
	if effModel == nil {
		effModel = efficiency.Default()
	}
	nub := p.Batch.Microbatches
	if nub <= 0 {
		nub = len(p.Stages)
	}
	if nub > p.Batch.Global {
		nub = p.Batch.Global
	}
	ub := float64(p.Batch.Global) / float64(nub)
	actBits := float64(p.Model.ActivationsPerLayer(p.Batch.Global)) / float64(nub) *
		float64(p.operands().Act.Bits())
	return microbatch{
		count:     nub,
		eff:       effModel.Eff(ub),
		layerMACs: float64(p.Model.LayerMACs(0, p.Batch.Global)) / float64(nub),
		comm:      float64(p.Interconnect.Latency) + actBits/float64(p.Interconnect.Bandwidth),
	}, nil
}

// StageTimes computes the per-stage timing profile of a balanced pipeline.
// Stages must have their layer assignment set (call Balance first).
func (p *Pipeline) StageTimes() (*StageProfile, error) {
	mb, err := p.perMicrobatch()
	if err != nil {
		return nil, err
	}
	prof := &StageProfile{
		Fwd:          make([]units.Seconds, len(p.Stages)),
		Comm:         units.Seconds(mb.comm),
		Microbatches: mb.count,
		Efficiency:   mb.eff,
	}
	for i, s := range p.Stages {
		prof.Fwd[i] = units.Seconds(mb.layerMACs * float64(s.Layers) / p.stageRate(s, mb.eff))
	}
	return prof, nil
}

// RunConfig expresses the profile as a pipesim schedule execution, the
// stages' unequal speeds carried by StageScale: the reference forward time
// is the slowest stage's, and every stage is scaled by fwd_i / fwd_ref
// (the backward, at Evaluate's fixed 2x forward, scales identically). Stage
// i's forward therefore runs FwdTime·StageScale[i] and its backward
// BwdTime·StageScale[i] — the durations every reader of the profile shares.
func (p *StageProfile) RunConfig(sched pipesim.Schedule) (pipesim.Config, error) {
	var fRef units.Seconds
	for _, f := range p.Fwd {
		if f > fRef {
			fRef = f
		}
	}
	if fRef <= 0 {
		return pipesim.Config{}, errors.New("hetero: degenerate stage times (zero forward compute)")
	}
	scale := make([]float64, len(p.Fwd))
	for i, f := range p.Fwd {
		scale[i] = float64(f) / float64(fRef)
	}
	return pipesim.Config{
		Stages:       len(p.Fwd),
		Microbatches: p.Microbatches,
		FwdTime:      eventsim.Time(fRef),
		BwdTime:      eventsim.Time(2 * fRef),
		CommTime:     eventsim.Time(p.Comm),
		Schedule:     sched,
		StageScale:   scale,
	}, nil
}

// Simulate executes the balanced pipeline's schedule with pipesim.Run over
// the profile's RunConfig. Each task starts at max(its stage's previous
// finish, its producer's finish + the stage-boundary transfer). It returns
// the schedule's result alongside the profile that parameterized it.
func (p *Pipeline) Simulate(sched pipesim.Schedule) (*pipesim.Result, *StageProfile, error) {
	prof, err := p.StageTimes()
	if err != nil {
		return nil, nil, err
	}
	cfg, err := prof.RunConfig(sched)
	if err != nil {
		return nil, nil, err
	}
	res, err := pipesim.Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	return res, prof, nil
}

// Evaluate computes the batch time of a balanced heterogeneous pipeline.
// Stages must have their layer assignment set (call Balance first).
func (p *Pipeline) Evaluate() (*Result, error) {
	mb, err := p.perMicrobatch()
	if err != nil {
		return nil, err
	}
	times := make([]units.Seconds, len(p.Stages))
	var slowest units.Seconds
	bottleneck := 0
	for i, s := range p.Stages {
		rate := p.stageRate(s, mb.eff)
		compute := 3 * mb.layerMACs * float64(s.Layers) / rate // fwd + 2x bwd
		times[i] = units.Seconds(compute + mb.comm)
		if times[i] > slowest {
			slowest = times[i]
			bottleneck = i
		}
	}
	// Pipeline makespan: N_ub steps of the bottleneck plus one fill/drain
	// traversal of every other stage.
	total := float64(slowest) * float64(mb.count)
	for i, t := range times {
		if i != bottleneck {
			total += float64(t)
		}
	}
	return &Result{
		PerBatch:   units.Seconds(total),
		StageTimes: times,
		Bottleneck: bottleneck,
		Efficiency: mb.eff,
	}, nil
}
