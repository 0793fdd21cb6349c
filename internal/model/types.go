// Package model implements the AMPeD analytical performance model
// (Moolchandani et al., ISPASS 2023, Eq. 1–12): the end-to-end training
// time of a transformer on a distributed system under a given parallelism
// mapping, decomposed into computation, communication and pipeline-bubble
// waiting time.
package model

import (
	"errors"
	"fmt"

	"amped/internal/efficiency"
	"amped/internal/faults"
	"amped/internal/hardware"
	"amped/internal/parallel"
	"amped/internal/precision"
	"amped/internal/topology"
	"amped/internal/transformer"
	"amped/internal/units"
)

// Training carries the training-procedure knobs of the model.
type Training struct {
	// Batch is the global batch and microbatch schedule.
	Batch parallel.Batch
	// NumBatches is N_batch, the number of batches in the training run
	// (dataset tokens / batch tokens). Zero evaluates a single batch.
	NumBatches int
	// BubbleRatio is R of Eq. 8: the fraction of naive pipeline bubbles
	// that remain non-overlapped. 1 models naive/GPipe pipelining (the
	// paper's Table II setting); interleaved schedules push it below 1.
	// Negative values are invalid; zero means "default to 1".
	BubbleRatio float64
	// ZeROOverhead is M_f_DP of Eq. 5, the fractional communication
	// overhead added by ZeRO-powered data parallelism. Zero for plain DP.
	ZeROOverhead float64
	// BackwardComputeFactor scales forward compute to backward compute;
	// the standard convention is 2 (gradients w.r.t. both inputs and
	// weights). Zero means "default to 2".
	BackwardComputeFactor float64
	// BackwardCommFactor scales forward communication to backward
	// communication (errors replace activations, Eq. "M_b"). Zero means
	// "default to 1".
	BackwardCommFactor float64
	// CommOverlap is the fraction of TP/PP/MoE communication hidden under
	// computation (0 = fully exposed, the paper's model; real frameworks
	// overlap a large share, which is one source of AMPeD's residual
	// error). Gradient all-reduce is not discounted: it happens after the
	// backward pass by Eq. 1's construction.
	CommOverlap float64
	// GradOverlap is the fraction of the data-parallel gradient all-reduce
	// launched as buckets under the backward pass (DDP/FSDP-style
	// overlapping), in [0,1]. The exposed gradient time is derived from a
	// bucketed pipeline closed form — the first ceil(GradOverlap·L) of the
	// L(+1) per-layer buckets drain while backward compute still runs —
	// rather than a flat discount, so communication that outlasts the
	// backward pass stays exposed. 0 keeps Eq. 1's fully-serialized
	// all-reduce bit-identically.
	GradOverlap float64
	// Roofline prices every sublayer at t_op = max(work/peak, bytes/BW)
	// instead of pure FLOP time, using the per-sublayer streamed-byte
	// counts (transformer.Ops.ActElems/WeightElems) against the
	// accelerator's memory bandwidth. Memory-bound sublayers (LayerNorm,
	// softmax, residuals) stop pricing as nearly free. When the
	// accelerator's MemBW is zero ("not modeled") the flag silently falls
	// back to pure-FLOP pricing, bit-identical to the legacy path. The
	// weight-update term stays pure-FLOP (optimizer state traffic is not
	// modeled), and weight streaming is charged once per global-batch pass.
	Roofline bool
	// Operands supplies S_p, S_act, S_nonlin and S_g.
	Operands precision.Operands
	// Topology selects the collective algorithms (default ring + pairwise).
	Topology topology.Choice
	// IncludeEmbedding adds the logit projection and embedding gradients
	// to the accounting. The paper's layer-sum formulation skips them;
	// they matter below ~1B parameters. Default false matches the paper.
	IncludeEmbedding bool
	// Reliability, when non-nil, layers the failure-aware goodput model on
	// top of Eq. 1: per-component MTBFs compose into a system failure rate
	// that scales with the mapping's world size, and the expected
	// checkpoint/rework/restart overhead inflates the training time (see
	// internal/faults). Nil keeps the legacy healthy-cluster behavior and
	// the breakdown bit-identical to earlier versions.
	Reliability *faults.Spec
}

// withDefaults returns a copy with zero-valued knobs set to their defaults.
func (t Training) withDefaults() Training {
	if t.BubbleRatio == 0 {
		t.BubbleRatio = 1
	}
	if t.BackwardComputeFactor == 0 {
		t.BackwardComputeFactor = 2
	}
	if t.BackwardCommFactor == 0 {
		t.BackwardCommFactor = 1
	}
	if t.Operands == (precision.Operands{}) {
		t.Operands = precision.Mixed16()
	}
	if t.Topology == (topology.Choice{}) {
		t.Topology = topology.DefaultChoice()
	}
	if t.NumBatches == 0 {
		t.NumBatches = 1
	}
	return t
}

// Validate checks the training configuration.
func (t Training) Validate() error {
	d := t.withDefaults()
	if d.BubbleRatio < 0 {
		return fmt.Errorf("model: bubble ratio %g must be non-negative", d.BubbleRatio)
	}
	if d.ZeROOverhead < 0 {
		return fmt.Errorf("model: ZeRO overhead %g must be non-negative", d.ZeROOverhead)
	}
	if d.BackwardComputeFactor < 0 || d.BackwardCommFactor < 0 {
		return errors.New("model: backward factors must be non-negative")
	}
	if d.CommOverlap < 0 || d.CommOverlap > 1 {
		return fmt.Errorf("model: comm overlap %g outside [0,1]", d.CommOverlap)
	}
	if d.GradOverlap < 0 || d.GradOverlap > 1 {
		return fmt.Errorf("model: gradient overlap %g outside [0,1]", d.GradOverlap)
	}
	if d.NumBatches < 0 {
		return fmt.Errorf("model: batch count %d must be non-negative", d.NumBatches)
	}
	if err := d.Operands.Validate(); err != nil {
		return err
	}
	if err := d.Reliability.Validate(); err != nil {
		return err
	}
	return d.Topology.Validate()
}

// Estimator evaluates AMPeD for one (model, system, mapping, training)
// design point.
type Estimator struct {
	// Model is the transformer architecture.
	Model *transformer.Model
	// System is the machine.
	System *hardware.System
	// Mapping is the parallelism configuration.
	Mapping parallel.Mapping
	// Training is the training procedure.
	Training Training
	// Eff is the microbatch-efficiency model (nil means efficiency.Default).
	Eff efficiency.Model
}

// Breakdown is the evaluated training-time decomposition. All duration
// fields are per batch, in seconds, as experienced by the critical path
// (computation already divided by the worker count, Eq. 1).
type Breakdown struct {
	// ComputeForward is Σ_l U_f(l) / (N_TP·N_DP·N_PP).
	ComputeForward units.Seconds
	// ComputeBackward is Σ_l U_b(l) / (N_TP·N_DP·N_PP).
	ComputeBackward units.Seconds
	// WeightUpdate is Σ_l U_w(l) / (N_TP·N_DP·N_PP).
	WeightUpdate units.Seconds
	// TPIntraComm and TPInterComm are the tensor-parallel all-reduce time
	// (forward + backward), Eq. 6, split by link level.
	TPIntraComm units.Seconds
	TPInterComm units.Seconds
	// PPComm is the pipeline point-to-point time (forward + backward),
	// Eq. 7, already max(intra, inter) per the paper, multiplied by the
	// virtual-pipeline chunk count (interleaving crosses stage boundaries
	// VPP times per microbatch).
	PPComm units.Seconds
	// CPComm is the context-parallel K/V exchange time (forward +
	// backward): each rank ring-exchanges its 2·ub·(s/N_CP)·h key/value
	// shard with the rest of the CP group once per layer. Zero without
	// context parallelism.
	CPComm units.Seconds
	// MoEComm is the expert all-to-all time (forward + backward), Eq. 9.
	MoEComm units.Seconds
	// ZeROComm is the extra communication added by the (1 + M_f_DP)
	// factor of Eq. 5.
	ZeROComm units.Seconds
	// GradIntraComm and GradInterComm are the gradient all-reduce time,
	// Eq. 10–11.
	GradIntraComm units.Seconds
	GradInterComm units.Seconds
	// Bubble is Σ_l W(l), the pipeline waiting time of Eq. 8.
	Bubble units.Seconds

	// Microbatch is ub, and Efficiency is eff(ub) as used in C_MAC.
	Microbatch float64
	Efficiency float64
	// Workers echoes the mapping's total accelerator count.
	Workers int
	// NumBatches echoes N_batch used for TotalTime.
	NumBatches int
	// ModelFLOPs is the useful training work per batch (6·MACs_fwd),
	// the numerator of the TFLOP/s/GPU metric.
	ModelFLOPs units.FLOPs
	// Reliability is the failure expectation for this design point: zero
	// (disabled) unless the training recipe carries a reliability spec. It
	// scales the healthy per-batch time into expected wall-clock time; the
	// per-batch component fields above stay failure-free so breakdown
	// tables and cross-evaluator audits compare the pure Eq. 1 terms.
	Reliability faults.Expectation
}

// ComputeTime sums the computation components.
func (b *Breakdown) ComputeTime() units.Seconds {
	return b.ComputeForward + b.ComputeBackward + b.WeightUpdate
}

// CommTime sums every communication component.
func (b *Breakdown) CommTime() units.Seconds {
	return b.TPIntraComm + b.TPInterComm + b.PPComm + b.CPComm + b.MoEComm +
		b.ZeROComm + b.GradIntraComm + b.GradInterComm
}

// PerBatch is the Eq. 1 bracket: computation + communication + waiting.
func (b *Breakdown) PerBatch() units.Seconds {
	return b.ComputeTime() + b.CommTime() + b.Bubble
}

// TotalTime is N_batch × PerBatch, the paper's training time.
func (b *Breakdown) TotalTime() units.Seconds {
	return units.Seconds(float64(b.PerBatch()) * float64(b.NumBatches))
}

// GoodputFraction is the expected useful fraction of wall-clock time under
// the reliability model: 1 when reliability is disabled, 1/(1+overhead)
// otherwise (see faults.Expectation).
func (b *Breakdown) GoodputFraction() float64 {
	return b.Reliability.Goodput()
}

// ExpectedPerBatch is the per-batch time inflated by the expected failure
// overhead: PerBatch/goodput. Equal to PerBatch when reliability is disabled.
func (b *Breakdown) ExpectedPerBatch() units.Seconds {
	return units.Seconds(float64(b.PerBatch()) * (1 + b.Reliability.Overhead()))
}

// ExpectedTotalTime is N_batch × ExpectedPerBatch: the paper's training time
// plus the expected checkpoint, rework and restart cost of running it on a
// cluster that fails.
func (b *Breakdown) ExpectedTotalTime() units.Seconds { return b.expectedTotal(b.PerBatch()) }

// expectedTotal is ExpectedTotalTime over the breakdown's PerBatch sum,
// already taken: TotalTime's product, then the failure inflation.
func (b *Breakdown) expectedTotal(perBatch units.Seconds) units.Seconds {
	total := units.Seconds(float64(perBatch) * float64(b.NumBatches))
	return units.Seconds(float64(total) * (1 + b.Reliability.Overhead()))
}

// TFLOPSPerGPU is the achieved useful throughput per accelerator, the
// metric of Table II and Fig. 2c.
func (b *Breakdown) TFLOPSPerGPU() float64 {
	t := float64(b.PerBatch())
	if t <= 0 || b.Workers <= 0 {
		return 0
	}
	return float64(b.ModelFLOPs) / t / float64(b.Workers) / units.Tera
}

// Components returns the named per-batch contributions in presentation
// order, for breakdown tables and stacked-bar figures (Fig. 3).
func (b *Breakdown) Components() []Component {
	return []Component{
		{"compute fwd", b.ComputeForward},
		{"compute bwd", b.ComputeBackward},
		{"weight update", b.WeightUpdate},
		{"TP comm intra", b.TPIntraComm},
		{"TP comm inter", b.TPInterComm},
		{"PP comm", b.PPComm},
		{"CP comm", b.CPComm},
		{"MoE comm", b.MoEComm},
		{"ZeRO comm", b.ZeROComm},
		{"grad AR intra", b.GradIntraComm},
		{"grad AR inter", b.GradInterComm},
		{"bubble", b.Bubble},
	}
}

// finite reports whether every component of Components is a finite
// number, reading the fields directly instead of building the list.
func (b *Breakdown) finite() bool {
	return finite(b.ComputeForward, b.ComputeBackward, b.WeightUpdate,
		b.TPIntraComm, b.TPInterComm, b.PPComm, b.CPComm, b.MoEComm,
		b.ZeROComm, b.GradIntraComm, b.GradInterComm, b.Bubble)
}

// Component is one named contribution to the per-batch time.
type Component struct {
	Name string
	Time units.Seconds
}

// String summarizes the breakdown.
func (b *Breakdown) String() string {
	return fmt.Sprintf("per-batch %v (compute %v, comm %v, bubble %v), eff %.1f%%, %.1f TFLOP/s/GPU",
		b.PerBatch(), b.ComputeTime(), b.CommTime(), b.Bubble,
		b.Efficiency*100, b.TFLOPSPerGPU())
}
