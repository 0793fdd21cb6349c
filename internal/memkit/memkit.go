// Package memkit estimates the per-accelerator memory footprint of a
// distributed training configuration: parameters, gradients, optimizer
// states and live activations under a given parallelism mapping, ZeRO stage
// and pipeline schedule.
//
// The paper folds memory effects into the fitted microbatch-efficiency
// curve and names a first-class memory model as future work; this package
// implements that extension so the exploration engine can reject mappings
// that cannot physically fit (e.g. the paper's §V-B observation that the
// last pipeline stage gathering all microbatches is memory-bottlenecked).
package memkit

import (
	"errors"
	"fmt"

	"amped/internal/hardware"
	"amped/internal/parallel"
	"amped/internal/precision"
	"amped/internal/transformer"
	"amped/internal/units"
)

// Optimizer selects the optimizer-state accounting.
type Optimizer int

const (
	// SGD keeps no extra state beyond gradients.
	SGD Optimizer = iota
	// SGDMomentum keeps one momentum buffer per parameter (fp32).
	SGDMomentum
	// Adam keeps two moments plus an fp32 master copy per parameter, the
	// standard mixed-precision recipe (12 bytes per parameter).
	Adam
)

// String names the optimizer.
func (o Optimizer) String() string {
	switch o {
	case SGD:
		return "sgd"
	case SGDMomentum:
		return "sgd+momentum"
	case Adam:
		return "adam"
	default:
		return fmt.Sprintf("memkit.Optimizer(%d)", int(o))
	}
}

// ParseOptimizer maps a config-file name onto an Optimizer. Accepted names
// are "sgd", "sgd+momentum" (or "momentum") and "adam".
func ParseOptimizer(name string) (Optimizer, error) {
	switch name {
	case "sgd":
		return SGD, nil
	case "sgd+momentum", "momentum":
		return SGDMomentum, nil
	case "adam":
		return Adam, nil
	default:
		return 0, fmt.Errorf("memkit: unknown optimizer %q (want sgd, sgd+momentum or adam)", name)
	}
}

// StateBytesPerParam is the optimizer-state bytes carried per trainable
// parameter — what a checkpoint must persist on top of the parameters
// themselves.
func (o Optimizer) StateBytesPerParam() float64 { return o.bytesPerParam() }

// bytesPerParam returns the optimizer-state bytes per trainable parameter.
func (o Optimizer) bytesPerParam() float64 {
	switch o {
	case SGD:
		return 0
	case SGDMomentum:
		return 4
	case Adam:
		return 12 // two fp32 moments + fp32 master weight
	default:
		return 0
	}
}

// Schedule selects how many microbatches a pipeline stage holds live.
type Schedule int

const (
	// GPipe accumulates all N_ub microbatch activations before the
	// backward pass begins.
	GPipe Schedule = iota
	// OneFOneB (1F1B) bounds live microbatches by the pipeline depth.
	OneFOneB
)

// String names the schedule.
func (s Schedule) String() string {
	switch s {
	case GPipe:
		return "gpipe"
	case OneFOneB:
		return "1f1b"
	default:
		return fmt.Sprintf("memkit.Schedule(%d)", int(s))
	}
}

// Config selects the memory-relevant training options.
type Config struct {
	// Operands supplies the parameter/gradient/activation element sizes.
	Operands precision.Operands
	// Optimizer selects the state accounting (default SGD).
	Optimizer Optimizer
	// ZeROStage shards optimizer state (>=1), gradients (>=2) and
	// parameters (>=3) across the data-parallel group [Rajbhandari'20].
	ZeROStage int
	// Checkpointing keeps only layer-boundary activations live,
	// recomputing the interior on the backward pass.
	Checkpointing bool
	// Schedule bounds in-flight microbatches (default GPipe).
	Schedule Schedule
	// OffloadOptimizer moves the optimizer states to host memory
	// (ZeRO-Offload): they stop counting against the device budget at the
	// price of PCIe traffic every step (not modeled here; the time-side
	// cost belongs to a fitted efficiency input).
	OffloadOptimizer bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Operands.Validate(); err != nil {
		return err
	}
	if c.ZeROStage < 0 || c.ZeROStage > 3 {
		return fmt.Errorf("memkit: ZeRO stage %d outside [0,3]", c.ZeROStage)
	}
	if c.Optimizer < SGD || c.Optimizer > Adam {
		return fmt.Errorf("memkit: unknown optimizer %d", int(c.Optimizer))
	}
	if c.Schedule < GPipe || c.Schedule > OneFOneB {
		return fmt.Errorf("memkit: unknown schedule %d", int(c.Schedule))
	}
	return nil
}

// Footprint is the per-accelerator memory breakdown in bytes.
type Footprint struct {
	// Params is the resident model-parameter memory.
	Params units.Bytes
	// Grads is the gradient buffer memory.
	Grads units.Bytes
	// Optimizer is the optimizer-state memory.
	Optimizer units.Bytes
	// Activations is the peak live-activation memory.
	Activations units.Bytes
}

// Total sums all components.
func (f Footprint) Total() units.Bytes {
	return f.Params + f.Grads + f.Optimizer + f.Activations
}

// String renders the breakdown.
func (f Footprint) String() string {
	return fmt.Sprintf("params %v + grads %v + optimizer %v + activations %v = %v",
		f.Params, f.Grads, f.Optimizer, f.Activations, f.Total())
}

// activationBytesPerToken estimates live activation elements per token per
// layer for the standard transformer block [Korthikanti'22-style
// accounting, simplified]: (10+2·kvFrac)·h for the linear paths (Q, the
// context and MLP tensors at full width, K and V shrunk to the GQA head
// fraction; sharded by TP via the caller's global division), 4·h for the
// norm/dropout tensors — which are REPLICATED across the tensor-parallel
// group unless sequence parallelism shards them, hence the ·tp compensation
// against the caller's division — plus 2·a·(span/cp) for the attention
// score matrices, spanning the sliding window when one is set (the same
// AttnSpan the transformer op counts price — charging full SeqLen would
// reject mappings the windowed model actually fits). At kvFrac = 1,
// span = s and tp = cp = 1 the expression is bit-identical to the legacy
// 16·h + 2·a·s.
func activationBytesPerToken(m *transformer.Model, mp parallel.Mapping, actBytes float64) float64 {
	h := float64(m.Hidden)
	a := float64(m.Heads)
	kvFrac := m.KVFrac()
	span := m.AttnSpan() / float64(mp.CP())
	norm := 4 * h
	if !mp.SequenceParallel {
		norm *= float64(mp.TP())
	}
	return ((10+2*kvFrac)*h + norm + 2*a*span) * actBytes
}

// Estimate computes the per-accelerator footprint of training model m on
// mapping mp with batch b under cfg.
func Estimate(m *transformer.Model, mp parallel.Mapping, b parallel.Batch, cfg Config) (Footprint, error) {
	if m == nil {
		return Footprint{}, errors.New("memkit: nil model")
	}
	if err := m.Validate(); err != nil {
		return Footprint{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Footprint{}, err
	}
	if err := b.Validate(mp); err != nil {
		return Footprint{}, err
	}

	tp, pp, dp := float64(mp.TP()), float64(mp.PP()), float64(mp.DP())

	// Parameters are sharded by TP and PP; DP replicates unless ZeRO-3.
	paramsPerWorker := m.TotalParams() / (tp * pp)
	paramBytes := paramsPerWorker * float64(cfg.Operands.Param.Bytes())
	gradBytes := paramsPerWorker * float64(cfg.Operands.Grad.Bytes())
	optBytes := paramsPerWorker * cfg.Optimizer.bytesPerParam()
	if cfg.ZeROStage >= 1 {
		optBytes /= dp
	}
	if cfg.OffloadOptimizer {
		optBytes = 0
	}
	if cfg.ZeROStage >= 2 {
		gradBytes /= dp
	}
	if cfg.ZeROStage >= 3 {
		paramBytes /= dp
	}

	// Activations: layers-per-stage × per-microbatch activation working
	// set × live microbatches, sharded by TP.
	layersPerStage := float64(m.Layers) / pp
	ub := b.Microbatch(mp)
	// Context parallelism shards the sequence: each rank holds s/N_CP of the
	// microbatch's tokens (cp = 1 divides by 1.0, bit-identical to legacy).
	tokensPerUB := ub * float64(m.SeqLen) / float64(mp.CP())
	perLayer := tokensPerUB * activationBytesPerToken(m, mp, float64(cfg.Operands.Act.Bytes()))
	if cfg.Checkpointing {
		// Only the layer-boundary tensor stays live per layer, plus one
		// full layer being recomputed.
		boundary := tokensPerUB * float64(m.Hidden) * float64(cfg.Operands.Act.Bytes())
		perLayer = boundary
	}
	live := float64(b.MicrobatchesOrDefault(mp))
	if cfg.Schedule == OneFOneB && live > pp {
		live = pp
	}
	actBytes := layersPerStage * perLayer * live / tp
	if cfg.Checkpointing {
		// One layer's full working set exists transiently during recompute.
		actBytes += tokensPerUB * activationBytesPerToken(m, mp, float64(cfg.Operands.Act.Bytes())) / tp
	}

	return Footprint{
		Params:      units.Bytes(paramBytes),
		Grads:       units.Bytes(gradBytes),
		Optimizer:   units.Bytes(optBytes),
		Activations: units.Bytes(actBytes),
	}, nil
}

// Fits reports whether the footprint fits the accelerator's memory,
// reserving a fraction for framework overhead (CUDA context, fragmentation);
// reserve 0 means the full capacity is usable.
func Fits(f Footprint, accel hardware.Accelerator, reserve float64) bool {
	return fitsMemory(f, accel.Memory, reserve)
}

// fitsMemory is Fits against a bare capacity.
func fitsMemory(f Footprint, memory units.Bytes, reserve float64) bool {
	return float64(f.Total()) <= float64(memory)*(1-reserve)
}
