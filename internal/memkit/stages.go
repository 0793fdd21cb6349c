package memkit

import (
	"amped/internal/parallel"
	"amped/internal/transformer"
	"amped/internal/units"
)

// StageFootprints breaks the memory estimate down per pipeline stage,
// including the torchgpipe-style output gather: the last stage accumulates
// every microbatch's output tensor before the backward pass, which is the
// bottleneck the paper blames for Fig. 2b's 8->16 GPU saturation ("it is
// bottlenecked by the memory of the last GPU — all the microbatches are
// gathered at the last GPU"). The returned slice has one entry per
// pipeline stage; for PP = 1 it degenerates to the single Estimate.
func StageFootprints(m *transformer.Model, mp parallel.Mapping, b parallel.Batch, cfg Config) ([]Footprint, error) {
	base, err := Estimate(m, mp, b, cfg)
	if err != nil {
		return nil, err
	}
	out := make([]Footprint, mp.PP())
	for i := range out {
		out[i] = base
	}
	out[len(out)-1].Activations += lastStageGather(m, mp, b, cfg)
	return out, nil
}

// WorstStage is the footprint of the pipeline stage that needs the most
// memory, without allocating the per-stage slice: every stage holds the
// same Estimate and the last one adds the output gather, so for PP > 1 the
// last stage is the worst. A mapping fits a device exactly when its worst
// stage does; every memory-feasibility check goes through here.
func WorstStage(m *transformer.Model, mp parallel.Mapping, b parallel.Batch, cfg Config) (Footprint, error) {
	fp, err := Estimate(m, mp, b, cfg)
	if err != nil {
		return Footprint{}, err
	}
	fp.Activations += lastStageGather(m, mp, b, cfg)
	return fp, nil
}

// lastStageGather is the output gather resident on the last pipeline stage:
// N_ub microbatch boundary tensors at activation precision, sharded by TP
// and CP. It is zero without a pipeline. The model has passed Estimate.
func lastStageGather(m *transformer.Model, mp parallel.Mapping, b parallel.Batch, cfg Config) units.Bytes {
	if mp.PP() <= 1 {
		return 0
	}
	ub := b.Microbatch(mp)
	nub := float64(b.MicrobatchesOrDefault(mp))
	return units.Bytes(ub * float64(m.SeqLen) * float64(m.Hidden) *
		float64(cfg.Operands.Act.Bytes()) * nub / float64(mp.TP()*mp.CP()))
}

// MaxGlobalBatch searches the largest global batch (a multiple of the
// data-parallel width times the microbatch count) whose worst pipeline
// stage still fits the accelerator memory with the given reserve. It
// returns 0 when even the smallest batch does not fit.
func MaxGlobalBatch(m *transformer.Model, mp parallel.Mapping, microbatches int,
	cfg Config, memory units.Bytes, reserve float64) int {
	step := mp.DP()
	if microbatches > 0 {
		step *= microbatches
	}
	fits := func(batch int) bool {
		b := parallel.Batch{Global: batch, Microbatches: microbatches}
		worst, err := WorstStage(m, mp, b, cfg)
		return err == nil && fitsMemory(worst, memory, reserve)
	}
	if !fits(step) {
		return 0
	}
	// Exponential probe then binary search on the multiple.
	hi := 1
	for fits(step * hi * 2) {
		hi *= 2
		if hi > 1<<20 {
			break
		}
	}
	lo := hi
	hi *= 2
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if fits(step * mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return step * lo
}
