// Package amped is an analytical model for performance in distributed
// training of transformers — a from-scratch Go implementation of AMPeD
// (Moolchandani et al., ISPASS 2023).
//
// AMPeD predicts the end-to-end training time of a transformer on a
// distributed accelerator system from first principles: per-layer
// MAC/non-linear operation counts, accelerator design parameters, link
// latencies and bandwidths, the mapping of tensor/pipeline/data/expert
// parallelism onto intra- and inter-node accelerators, microbatch
// efficiency, and pipeline-bubble waiting time (the paper's Eq. 1–12).
//
// The package is a stable facade over the implementation packages: model
// descriptions live in Model, machines in System, parallelism mappings in
// Mapping, and one call to Evaluate produces the full per-phase Breakdown.
//
//	m := amped.Megatron145B()
//	sys := amped.CaseStudy1System()
//	bd, err := amped.Evaluate(&m, &sys, amped.Mapping{TPIntra: 8, DPInter: 128},
//	    amped.Training{Batch: amped.Batch{Global: 8192}})
//
// Deeper capabilities — mapping enumeration and sweeps (explore), memory
// footprints (memkit), energy (power), schedule-level pipeline and
// collective simulation (pipesim, collective), and the paper's full
// table/figure reproduction harness (validate) — are exposed as aliased
// types and re-exported helpers below, or runnable through cmd/amped,
// cmd/amped-explore and cmd/amped-repro.
package amped

import (
	"amped/internal/config"
	"amped/internal/efficiency"
	"amped/internal/explore"
	"amped/internal/hardware"
	"amped/internal/memkit"
	"amped/internal/model"
	"amped/internal/parallel"
	"amped/internal/pipesim"
	"amped/internal/plan"
	"amped/internal/power"
	"amped/internal/precision"
	"amped/internal/sensitivity"
	"amped/internal/transformer"
	"amped/internal/units"
)

// Core model types.
type (
	// Model describes a transformer architecture and its op counts.
	Model = transformer.Model
	// Accelerator is one accelerator design point (Table IV knobs).
	Accelerator = hardware.Accelerator
	// Link is a communication link (latency + bandwidth).
	Link = hardware.Link
	// System is a multi-node machine of homogeneous accelerators.
	System = hardware.System
	// Mapping assigns TP/PP/DP degrees to intra- and inter-node levels.
	Mapping = parallel.Mapping
	// Batch is the global-batch and microbatch schedule.
	Batch = parallel.Batch
	// Training carries the training-recipe knobs (R, ZeRO, precisions).
	Training = model.Training
	// Estimator evaluates AMPeD for one design point.
	Estimator = model.Estimator
	// Session is a compiled scenario whose EvaluatePoint runs in O(1) with
	// zero allocations per point; build one with Compile for sweeps.
	Session = model.Session
	// Breakdown is the evaluated per-phase time decomposition.
	Breakdown = model.Breakdown
	// Inference describes a serving workload (prompt + generation lengths).
	Inference = model.Inference
	// InferenceSession is a compiled serving scenario; build one with
	// CompileInference to price TTFT and per-token decode steps in O(1).
	InferenceSession = model.InferenceSession
	// InferenceBreakdown is the evaluated serving phase decomposition.
	InferenceBreakdown = model.InferenceBreakdown
	// Operands bundles the operand precisions (S_p, S_act, S_nonlin, S_g).
	Operands = precision.Operands
	// Precision is an operand width in bits.
	Precision = precision.Precision
	// EfficiencyModel maps microbatch size to achieved utilization.
	EfficiencyModel = efficiency.Model
	// Saturating is the paper's eff(ub) = a·ub/(b+ub) form.
	Saturating = efficiency.Saturating
	// FixedEfficiency is a constant utilization.
	FixedEfficiency = efficiency.Fixed
)

// Exploration, memory, power and config types.
type (
	// Scenario fixes what a design-space sweep does not vary.
	Scenario = explore.Scenario
	// SweepOptions selects what a sweep varies.
	SweepOptions = explore.Options
	// SweepPoint is one evaluated sweep cell.
	SweepPoint = explore.Point
	// MemoryConfig selects optimizer/ZeRO/checkpointing accounting.
	MemoryConfig = memkit.Config
	// MemoryFootprint is a per-accelerator memory breakdown.
	MemoryFootprint = memkit.Footprint
	// EnergyEstimate is the training-run energy accounting.
	EnergyEstimate = power.Estimate
	// Document is the JSON design-point schema.
	Document = config.Document
)

// Operand precision constants.
const (
	FP8  = precision.FP8
	FP16 = precision.FP16
	FP32 = precision.FP32
)

// Memory-model selectors (see internal/memkit).
const (
	SGD         = memkit.SGD
	SGDMomentum = memkit.SGDMomentum
	Adam        = memkit.Adam
	GPipe       = memkit.GPipe
	OneFOneB    = memkit.OneFOneB
)

// Evaluate runs the analytical model for one design point with the default
// microbatch-efficiency curve. For full control construct an Estimator.
func Evaluate(m *Model, sys *System, mp Mapping, tr Training) (*Breakdown, error) {
	est := Estimator{Model: m, System: sys, Mapping: mp, Training: tr}
	return est.Evaluate()
}

// EvaluateWithEfficiency runs the model with an explicit efficiency model.
func EvaluateWithEfficiency(m *Model, sys *System, mp Mapping, tr Training, eff EfficiencyModel) (*Breakdown, error) {
	est := Estimator{Model: m, System: sys, Mapping: mp, Training: tr, Eff: eff}
	return est.Evaluate()
}

// Compile validates a scenario once and returns the compiled evaluation
// Session — the fast path for evaluating many (mapping, batch) points of
// the same model/system/training tuple. A nil efficiency model selects the
// default saturating curve.
func Compile(m *Model, sys *System, tr Training, eff EfficiencyModel) (*Session, error) {
	return model.Compile(m, sys, tr, eff)
}

// CompileInference validates a serving scenario once and returns the
// compiled InferenceSession — the fast path for pricing many mappings of
// the same model/system/workload tuple. A nil efficiency model selects the
// default saturating curve.
func CompileInference(m *Model, sys *System, tr Training, eff EfficiencyModel, inf Inference) (*InferenceSession, error) {
	return model.CompileInference(m, sys, tr, eff, inf)
}

// Sweep evaluates every (mapping, batch) combination of a scenario; see
// explore.Sweep.
func Sweep(sc Scenario, opt SweepOptions) ([]SweepPoint, error) {
	return explore.Sweep(sc, opt)
}

// BestMapping returns the fastest feasible point of a sweep, or nil.
func BestMapping(points []SweepPoint) *SweepPoint { return explore.Best(points) }

// OptimalMicrobatches tunes N_ub for an estimator's batch and mapping and
// returns the fastest choice with its breakdown.
func OptimalMicrobatches(est Estimator) (int, *Breakdown, error) {
	return explore.OptimalMicrobatches(est)
}

// MemoryEstimate computes the per-accelerator memory footprint of a
// configuration.
func MemoryEstimate(m *Model, mp Mapping, b Batch, cfg MemoryConfig) (MemoryFootprint, error) {
	return memkit.Estimate(m, mp, b, cfg)
}

// StageMemory breaks the footprint down per pipeline stage, including the
// last stage's microbatch-output gather (the paper's §V-B bottleneck).
func StageMemory(m *Model, mp Mapping, b Batch, cfg MemoryConfig) ([]MemoryFootprint, error) {
	return memkit.StageFootprints(m, mp, b, cfg)
}

// MaxGlobalBatch finds the largest global batch whose worst pipeline stage
// still fits the given device memory with the reserve fraction held back.
func MaxGlobalBatch(m *Model, mp Mapping, microbatches int, cfg MemoryConfig, memory units.Bytes, reserve float64) int {
	return memkit.MaxGlobalBatch(m, mp, microbatches, cfg, memory, reserve)
}

// Bytes measures memory capacities for MaxGlobalBatch.
type Bytes = units.Bytes

// Energy derives the training-run energy of an evaluated breakdown.
func Energy(b *Breakdown, sys *System) (EnergyEstimate, error) {
	return power.FromBreakdown(b, sys)
}

// DefaultEfficiency returns the library's calibrated saturating
// microbatch-efficiency curve with the paper's 25% floor.
func DefaultEfficiency() Saturating { return efficiency.Default() }

// Mixed16 returns the classic mixed-precision operand set: 16-bit
// parameters/activations, 32-bit non-linear math and gradients.
func Mixed16() Operands { return precision.Mixed16() }

// LoadDocument reads a JSON design point from disk.
func LoadDocument(path string) (*Document, error) { return config.Load(path) }

// Model presets (see internal/transformer for the architectures).
var (
	MinGPT          = transformer.MinGPT
	MinGPTPipeline  = transformer.MinGPTPipeline
	GPT3175B        = transformer.GPT3175B
	Megatron145B    = transformer.Megatron145B
	Megatron310B    = transformer.Megatron310B
	Megatron530B    = transformer.Megatron530B
	Megatron1T      = transformer.Megatron1T
	GLaM            = transformer.GLaM
	GPipe24         = transformer.GPipe24
	ModelPreset     = transformer.Preset
	ModelPresetList = transformer.PresetNames
)

// Hardware presets (see internal/hardware for the design points).
var (
	NvidiaP100       = hardware.NvidiaP100
	NvidiaV100       = hardware.NvidiaV100
	NvidiaA100       = hardware.NvidiaA100
	NvidiaH100       = hardware.NvidiaH100
	HGX2             = hardware.HGX2
	CaseStudy1System = hardware.CaseStudy1System
	LowEndSystem     = hardware.LowEndSystem
	P100Cluster      = hardware.P100Cluster
	SeleneLike       = hardware.SeleneLike
	OpticalSystem    = hardware.OpticalSystem
)

// OpticalOptions configures OpticalSystem (Case Study III machines).
type OpticalOptions = hardware.OpticalOptions

// EnumerateMappings lists every mapping that tiles the system.
func EnumerateMappings(sys *System, opt EnumerateOptions) []Mapping {
	return parallel.Enumerate(sys, opt)
}

// EnumerateOptions constrains EnumerateMappings.
type EnumerateOptions = parallel.EnumerateOptions

// AttentionVariant extends a model with grouped-query or sliding-window
// attention; apply with its Apply method.
type AttentionVariant = transformer.Variant

// Sensitivity analysis, capacity planning and recipe tuning.
type (
	// TuneRequest frames an automatic recipe search.
	TuneRequest = plan.TuneRequest
	// Recipe is a complete, memory-feasible training configuration.
	Recipe = plan.Recipe
	// SensitivityResult is one knob's measured time elasticity.
	SensitivityResult = sensitivity.Result
	// PlanRequest describes an inverse capacity-planning problem.
	PlanRequest = plan.CapacityRequest
	// Plan is the capacity search's sized-machine answer.
	Plan = plan.Capacity
)

// Sensitivity measures the elasticity of a design point's training time to
// every hardware/system knob (step is the relative perturbation, e.g. 0.01).
func Sensitivity(est Estimator, step float64) ([]SensitivityResult, error) {
	return sensitivity.Analyze(est, step)
}

// MinimumNodes finds the smallest machine (in nodes of the template's
// shape) whose best mapping meets the request's deadline.
func MinimumNodes(req PlanRequest) (*Plan, error) { return plan.MinimumNodes(req) }

// Tune recommends the fastest memory-feasible training recipe — mapping,
// microbatches, ZeRO stage and checkpointing — for a model on a machine.
func Tune(req TuneRequest) (*Recipe, error) { return plan.Tune(req) }

// EstimateBubbleRatio derives Eq. 8's R factor for an interleaved pipeline
// schedule by simulating it with pipesim's schedule executor: the bubble
// time of a chunks-deep interleaved schedule relative to the naive one.
// Feed the result into Training.BubbleRatio.
func EstimateBubbleRatio(stages, microbatches, chunks int) (float64, error) {
	return pipesim.EstimateR(stages, microbatches, chunks, 1, 2, 0)
}
