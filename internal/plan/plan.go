// Package plan is AMPeD's mapping planner: it returns the optimal cell of
// the exact enumeration the exhaustive sweep (internal/explore) walks — the
// exact rank_s key, byte for byte.
//
// The homogeneous planner is the sweep executor's top-1: AMPeD prices a
// cell in closed form (Eq. 2–12), so an admissible bound on a cell costs as
// much as pricing it, and bounding every cell costs at least what pricing
// every cell through the batched kernel does. Solve is therefore
// explore.NewSpace plus Space.Top(n = 1) over the options' cursor range,
// and its result is the front of the sweep's SortByTime ranking by
// construction. The serving
// planner (SolveInference) is the same exhaustive scan over the serving
// mappings.
//
// The heterogeneous planner (SolveHetero) is the one place a bound earns
// its code: there pricing a cell runs the pipesim discrete-event simulator
// while the bound stays closed-form, so its best-first branch-and-bound
// expands a handful of cells instead of simulating them all.
package plan

import (
	"context"
	"slices"

	"amped/internal/baseline"
	"amped/internal/explore"
	"amped/internal/model"
)

// Stats reports how the planner covered its cell space.
type Stats struct {
	// CellsTotal is the size of the searched cell range.
	CellsTotal int64
	// CellsPrunedMemory counts serving mappings discarded by the KV-aware
	// concurrency gate before pricing (training plans leave it 0).
	CellsPrunedMemory int64
	// CellsInfeasible counts cells whose schedule or validation makes them
	// unrankable (layout pre-marks, evaluation errors).
	CellsInfeasible int64
	// CellsBounded counts cells that received a lower bound but were cut
	// off by it. Only the heterogeneous branch-and-bound sets it.
	CellsBounded int64
	// CellsExpanded counts cells priced to a rankable result (for the
	// heterogeneous planner: cells simulated).
	CellsExpanded int64
	// ComputeFloorSeconds is the compute-only baseline floor for the
	// scenario's smallest batch at utilization 1, scaled to the recipe's
	// batch count — a root-level sanity statistic.
	ComputeFloorSeconds float64
}

// ExpandedFraction is CellsExpanded / CellsTotal (0 on an empty space).
func (s Stats) ExpandedFraction() float64 {
	if s.CellsTotal == 0 {
		return 0
	}
	return float64(s.CellsExpanded) / float64(s.CellsTotal)
}

// Result is the planner's outcome for one scenario.
type Result struct {
	// Best is the optimal feasible cell — identical, including the exact
	// rank key and tie-break, to the front of the exhaustive sweep's
	// SortByTime ranking. Nil when no cell is feasible.
	Best *explore.Point
	// RankSeconds is Best's exact rank_s key
	// (float64(Breakdown.ExpectedTotalTime())); 0 when Best is nil.
	RankSeconds float64
	// Stats describes the search.
	Stats Stats
}

// Solve is SolveContext without cancellation.
func Solve(sc explore.Scenario, opt explore.Options) (*Result, error) {
	return SolveContext(context.Background(), sc, opt)
}

// SolveContext returns the optimal cell of the scenario's cell space. The
// scenario and options mean exactly what they mean to explore.Sweep —
// including a supplied pre-compiled Session and CursorLo/CursorHi shard
// ranges — and Best is the exhaustive sweep's ranking front byte-for-byte
// (both nil when no cell is feasible). A cancelled or expired context
// returns its error and no result: a partial search is not an optimum.
func SolveContext(ctx context.Context, sc explore.Scenario, opt explore.Options) (*Result, error) {
	// Failed cells rank last and never win; dropping them makes Top's
	// completed count the number of rankable cells.
	opt.KeepInvalid = false
	space, err := explore.NewSpace(sc, opt)
	if err != nil {
		return nil, err
	}
	lo, hi := opt.CursorLo, opt.CursorHi
	if lo == 0 && hi == 0 {
		hi = space.Cells()
	}
	top, completed, err := space.Top(ctx, lo, hi, 1)
	if err != nil {
		return nil, err
	}
	res := &Result{Stats: Stats{
		CellsTotal:          hi - lo,
		CellsInfeasible:     hi - lo - int64(completed),
		CellsExpanded:       int64(completed),
		ComputeFloorSeconds: computeFloor(space.Session(), opt.Batches),
	}}
	// The head is a !Fits cell when nothing fits the memory budget.
	if len(top) > 0 && top[0].Fits {
		res.Best = &top[0]
		res.RankSeconds = float64(res.Best.Breakdown.ExpectedTotalTime())
	}
	return res, nil
}

// computeFloor derives the root-level compute-only statistic: the baseline
// predictor's floor for the smallest swept batch at utilization 1, scaled
// by the recipe's batch count (NewSpace has rejected an empty batch list).
// Purely informational; any derivation error simply reports 0.
func computeFloor(sess *model.Session, batches []int) float64 {
	tr, sys := sess.Training(), sess.System()
	pred := &baseline.Predictor{
		Model:       sess.Model(),
		Accel:       sys.Accel,
		Workers:     sys.Nodes * sys.AccelsPerNode,
		Utilization: 1,
	}
	f, err := pred.ComputeFloor(slices.Min(batches), tr.BackwardComputeFactor)
	if err != nil {
		return 0
	}
	return float64(f) * float64(tr.NumBatches)
}
