// Package plan is AMPeD's mapping planner: it returns the optimal cell of
// the exact enumeration the exhaustive sweep (internal/explore) walks — the
// exact rank_s key, byte for byte.
//
// The homogeneous planner is the sweep executor's top-1: Solve is
// explore.NewSpace plus Space.Top(n = 1) over the options' cursor range,
// and its result is the front of the sweep's SortByTime ranking by
// construction. Top prices a cell only while its degree-group column's
// compute floor (a bound the column computes once for all its mappings) is
// not above the best key its worker has seen; the rest are cut unpriced.
// The serving planner (SolveInference) is an exhaustive scan over the
// serving mappings.
//
// The two optimizers a practitioner calls are searches over the same
// engine. Tune returns the exact fastest recipe over mapping × N_ub × the
// memory ladder (ZeRO stage, activation checkpointing), pricing each cell
// with the session's kernel under the worst-stage memory rule.
// MinimumNodes sizes a machine for a deadline by running Solve at each
// power-of-two node count.
//
// The heterogeneous planner (SolveHetero) is the one place a bound earns
// its code: there pricing a cell executes its pipeline schedule task by
// task (the pipesim recurrence) while the bound stays closed-form, so its
// best-first branch-and-bound expands a handful of cells instead of
// executing them all.
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
	// CellsPrunedMemory counts cells discarded by a memory check before
	// pricing: serving mappings over the KV-aware concurrency ceiling, and
	// recipe cells that no memory-ladder step fits (Solve leaves it 0).
	CellsPrunedMemory int64
	// CellsInfeasible counts cells whose schedule or validation makes them
	// unrankable (layout pre-marks, evaluation errors).
	CellsInfeasible int64
	// CellsBounded counts cells that received a lower bound but were cut
	// off by it unpriced: for Solve, the cells whose column compute floor
	// was above the best key seen (explore.Progress.Cut); for the
	// heterogeneous branch-and-bound, the cells left when the bound
	// stopped it.
	CellsBounded int64
	// CellsExpanded counts cells priced to a rankable result (for the
	// heterogeneous planner: cells whose schedule was executed).
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
// Stats.CellsBounded is what the call adds to the options' Progress.Cut
// (a fresh Progress when the options carry none), so a Progress shared
// with a concurrent sweep overstates it.
func SolveContext(ctx context.Context, sc explore.Scenario, opt explore.Options) (*Result, error) {
	// Failed cells rank last and never win; dropping them makes Top's
	// completed count the number of rankable cells, cut ones included.
	opt.KeepInvalid = false
	prog := opt.Progress
	if prog == nil {
		prog = new(explore.Progress)
		opt.Progress = prog
	}
	cut0 := prog.Cut.Load()
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
	cut := prog.Cut.Load() - cut0
	res := &Result{Stats: Stats{
		CellsTotal:          hi - lo,
		CellsInfeasible:     hi - lo - int64(completed),
		CellsBounded:        cut,
		CellsExpanded:       int64(completed) - cut,
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
