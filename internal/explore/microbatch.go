package explore

import (
	"errors"

	"amped/internal/model"
	"amped/internal/parallel"
)

// OptimalMicrobatches tunes N_ub for the estimator's mapping and batch: it
// evaluates every divisor of the per-replica batch that can fill the
// pipeline (N_ub >= N_PP, or the whole batch when the pipeline is deeper
// than the batch) and returns the fastest choice with its breakdown.
//
// This mirrors what practitioners do on real systems — the microbatch count
// trades pipeline-bubble amortization (large N_ub) against microbatch
// efficiency (small N_ub) — and is the selection rule the case-study
// reproductions use.
func OptimalMicrobatches(est model.Estimator) (int, *model.Breakdown, error) {
	dp := est.Mapping.DP()
	if dp <= 0 || est.Training.Batch.Global <= 0 || est.Training.Batch.Global%dp != 0 {
		return 0, nil, errors.New("explore: batch does not divide the data-parallel degree")
	}
	per := est.Training.Batch.Global / dp
	pp := est.Mapping.PP()

	var candidates []int
	if pp > per {
		candidates = []int{per}
	} else {
		for _, d := range parallel.Divisors(per) {
			if d >= pp {
				candidates = append(candidates, d)
			}
		}
	}

	// All candidates share the scenario, so compile it once and reuse the
	// session (and its memoized per-batch aggregate) across the divisor scan.
	sess, err := model.Compile(est.Model, est.System, est.Training, est.Eff)
	if err != nil {
		return 0, nil, err
	}

	bestN := 0
	var bestBD, scratch model.Breakdown
	found := false
	var firstErr error
	for _, n := range candidates {
		if err := sess.EvaluatePoint(est.Mapping, est.Training.Batch.Global, n, &scratch); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if !found || scratch.PerBatch() < bestBD.PerBatch() {
			bestN, bestBD, found = n, scratch, true
		}
	}
	if !found {
		return 0, nil, firstErr
	}
	return bestN, &bestBD, nil
}
