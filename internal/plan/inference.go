package plan

import (
	"errors"
	"fmt"

	"amped/internal/memkit"
	"amped/internal/model"
	"amped/internal/parallel"
)

// Serving-mapping search. The training planner minimizes the expected run
// time of a fixed recipe; the serving planner minimizes the steady-state
// per-token step time of a fixed concurrent-sequence count — with the
// serving batch fixed, the mapping that minimizes PerToken is exactly the
// mapping that maximizes tokens/s, so the rank key stays a time.

// InferenceOptions selects the serving search space.
type InferenceOptions struct {
	// Mappings lists explicit mappings to rank. Empty means enumerate all
	// mappings valid for the session's system via parallel.Enumerate.
	Mappings []parallel.Mapping
	// Enumerate configures the enumeration when Mappings is empty. MaxTP
	// and MaxPP default to the model's head and layer counts.
	Enumerate parallel.EnumerateOptions
	// Batch is the concurrent-sequence count across the fleet (required).
	Batch int
	// MemoryReserve is the fraction of device memory held back for
	// framework overhead in the KV-cache feasibility gate.
	MemoryReserve float64
}

// InferencePoint is one ranked serving mapping.
type InferencePoint struct {
	Mapping   parallel.Mapping
	Breakdown *model.InferenceBreakdown
	// MaxSeqs is the KV-aware per-replica concurrent-sequence ceiling at
	// the full context length (0 when device memory is unmodeled).
	MaxSeqs int
}

// String identifies the point.
func (p InferencePoint) String() string {
	return p.Mapping.String()
}

// InferenceResult is the serving planner's outcome.
type InferenceResult struct {
	// Best is the optimal feasible mapping: minimal per-token step time,
	// ties broken by the mapping's string identity. Nil when no mapping is
	// feasible.
	Best *InferencePoint
	// RankSeconds is Best's exact rank key (float64 of the per-token step
	// time); 0 when Best is nil.
	RankSeconds float64
	// TokensPerSecond is Best's fleet decode throughput; 0 when Best is nil.
	TokensPerSecond float64
	// Stats describes the search effort (ComputeFloorSeconds stays 0 — the
	// training-only root statistic has no serving analogue).
	Stats Stats
}

// SolveInference prices every serving mapping and returns the one with the
// minimal (per-token step time, mapping identity) pair. When the
// accelerator's memory is modeled, mappings whose per-replica batch exceeds
// the KV-aware concurrent-sequence ceiling are discarded before pricing —
// the decode state would not fit, no matter how fast the step.
func SolveInference(sess *model.InferenceSession, opt InferenceOptions) (*InferenceResult, error) {
	if sess == nil {
		return nil, errors.New("plan: nil inference session")
	}
	if opt.Batch <= 0 {
		return nil, fmt.Errorf("plan: serving batch %d must be positive", opt.Batch)
	}
	mappings := opt.Mappings
	if len(mappings) == 0 {
		en := opt.Enumerate
		if en.MaxTP == 0 {
			en.MaxTP = sess.Model().Heads
		}
		if en.MaxPP == 0 {
			en.MaxPP = sess.Model().Layers
		}
		mappings = parallel.Enumerate(sess.System(), en)
	}
	if len(mappings) == 0 {
		return nil, errors.New("plan: no mappings to rank")
	}

	res := &InferenceResult{}
	st := &res.Stats
	st.CellsTotal = int64(len(mappings))

	m := sess.Model()
	inf := sess.Inference()
	ctx := inf.PromptLen + inf.GenTokens
	ops := sess.Training().Operands
	accel := sess.System().Accel

	var bd, bestBd model.InferenceBreakdown
	var best InferencePoint
	for _, mp := range mappings {
		// KV-cache feasibility gate: dominance, not pricing — the ceiling
		// depends only on the mapping, so an over-ceiling mapping is
		// discarded unpriced. Non-dividing batches fall through to the
		// evaluator, which rejects them with its own error.
		maxSeqs := 0
		if dp := mp.DP(); accel.Memory > 0 && opt.Batch%dp == 0 {
			if n, err := memkit.MaxConcurrentSeqs(m, mp.Normalized(), ctx, ops, accel, opt.MemoryReserve); err == nil {
				if opt.Batch/dp > n {
					st.CellsPrunedMemory++
					continue
				}
				maxSeqs = n
			}
		}
		if err := sess.EvaluateInferencePoint(mp, opt.Batch, &bd); err != nil {
			st.CellsInfeasible++
			continue
		}
		st.CellsExpanded++
		rank := float64(bd.PerToken())
		if res.Best != nil && (rank > res.RankSeconds ||
			rank == res.RankSeconds && mp.String() >= best.Mapping.String()) {
			continue
		}
		best, bestBd = InferencePoint{Mapping: mp, MaxSeqs: maxSeqs}, bd
		res.Best, res.RankSeconds = &best, rank
	}
	if res.Best != nil {
		best.Breakdown = &bestBd
		res.TokensPerSecond = bestBd.TokensPerSecond()
	}
	return res, nil
}
