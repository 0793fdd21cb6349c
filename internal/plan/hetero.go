package plan

import (
	"container/heap"
	"errors"
	"fmt"
	"strings"

	"amped/internal/efficiency"
	"amped/internal/explore"
	"amped/internal/hardware"
	"amped/internal/hetero"
	"amped/internal/parallel"
	"amped/internal/pipesim"
	"amped/internal/precision"
	"amped/internal/transformer"
	"amped/internal/units"
)

// Pool is one homogeneous accelerator pool of a mixed fleet.
type Pool struct {
	// Name labels the pool in cell identities (e.g. the preset name).
	Name string
	// Accel is the pool's accelerator.
	Accel hardware.Accelerator
	// Count is how many accelerators the pool holds.
	Count int
}

// HeteroSpace is the heterogeneous search space: mixed accelerator pools
// whose pipeline-stage assignment (how many stages each pool serves, in
// pool order) is searched jointly with the tensor-parallel width, the
// batch size and the microbatch schedule. Stage layer counts are balanced
// against per-stage speed (hetero.Balance) and each candidate is priced by
// the pipesim discrete-event simulator with per-stage speed expressed
// through StageScale. Data parallelism is out of scope, matching the
// hetero package's convention (DP replicas would simply multiply).
type HeteroSpace struct {
	// Model is the transformer architecture.
	Model *transformer.Model
	// Pools are the accelerator pools in fixed pipeline order.
	Pools []Pool
	// Interconnect carries activations between stages.
	Interconnect hardware.Link
	// Operands sets the precisions (zero value = Mixed16).
	Operands precision.Operands
	// Eff is the microbatch-efficiency model (nil = default).
	Eff efficiency.Model
	// Batches lists the global batch sizes to search (required).
	Batches []int
	// MicrobatchTarget picks N_ub like the homogeneous sweep does
	// (explore.ChooseMicrobatches); zero targets microbatch size 1.
	MicrobatchTarget int
	// MaxTP caps the per-stage tensor-parallel width (default: the model's
	// head count); widths are powers of two.
	MaxTP int
	// MaxPP caps the pipeline depth (default: the model's layer count).
	MaxPP int
	// NumBatches scales the per-batch makespan into the total-time rank
	// (default 1).
	NumBatches int
	// Schedule selects the simulated execution order (default 1F1B).
	Schedule pipesim.Schedule
}

// HeteroCell is one candidate heterogeneous deployment.
type HeteroCell struct {
	// TP is the per-stage tensor-parallel width.
	TP int
	// PP is the pipeline depth (sum of Counts).
	PP int
	// Counts is how many pipeline stages each pool serves, in pool order.
	Counts []int
	// Batch is the global batch size.
	Batch int
	// Microbatches is the chosen N_ub.
	Microbatches int
	// Value is the rank: simulated makespan × NumBatches, in seconds.
	Value float64
	// ID is the cell's deterministic identity (the tie-break key).
	ID string
	// Err records an evaluation failure.
	Err error
}

// String returns the cell's identity.
func (c *HeteroCell) String() string { return c.ID }

// HeteroResult is the heterogeneous planner's outcome.
type HeteroResult struct {
	// Best is the optimal cell (nil when nothing evaluates).
	Best *HeteroCell
	// Stats describes the search effort (memory pruning and the compute
	// floor do not apply to the heterogeneous space and stay zero).
	Stats Stats
}

func (sp *HeteroSpace) schedule() pipesim.Schedule {
	return sp.Schedule // zero value is GPipe; OneFOneB must be explicit
}

func (sp *HeteroSpace) numBatches() int {
	if sp.NumBatches <= 0 {
		return 1
	}
	return sp.NumBatches
}

// validate checks the space's fixed structure.
func (sp *HeteroSpace) validate() error {
	if sp.Model == nil {
		return errors.New("plan: hetero space needs a model")
	}
	if err := sp.Model.Validate(); err != nil {
		return err
	}
	if len(sp.Pools) == 0 {
		return errors.New("plan: hetero space needs at least one accelerator pool")
	}
	for i, pool := range sp.Pools {
		if pool.Name == "" {
			return fmt.Errorf("plan: pool %d needs a name", i)
		}
		if pool.Count < 1 {
			return fmt.Errorf("plan: pool %q count %d must be >= 1", pool.Name, pool.Count)
		}
		if err := pool.Accel.Validate(); err != nil {
			return fmt.Errorf("plan: pool %q: %w", pool.Name, err)
		}
	}
	if len(sp.Batches) == 0 {
		return errors.New("plan: hetero space needs batch sizes")
	}
	for _, b := range sp.Batches {
		if b < 1 {
			return fmt.Errorf("plan: batch %d must be >= 1", b)
		}
	}
	return nil
}

// enumerate lays out the deterministic cell order: TP widths (powers of two)
// major, then pipeline depth, then the lexicographic stage compositions
// over the pools, then the batches. Cells whose pipeline can never fill
// (no N_ub >= PP exists) are excluded up front, mirroring the homogeneous
// layout's infeasibility pre-mark.
func (sp *HeteroSpace) enumerate() []HeteroCell {
	maxTP := sp.MaxTP
	if maxTP <= 0 || maxTP > sp.Model.Heads {
		maxTP = sp.Model.Heads
	}
	maxPP := sp.MaxPP
	if maxPP <= 0 || maxPP > sp.Model.Layers {
		maxPP = sp.Model.Layers
	}
	var cells []HeteroCell
	for tp := 1; tp <= maxTP; tp *= 2 {
		// Each pool can serve at most Count/tp stages at this width.
		caps := make([]int, len(sp.Pools))
		capSum := 0
		for k, pool := range sp.Pools {
			caps[k] = pool.Count / tp
			capSum += caps[k]
		}
		if capSum == 0 {
			continue
		}
		limit := maxPP
		if capSum < limit {
			limit = capSum
		}
		for pp := 1; pp <= limit; pp++ {
			counts := make([]int, len(sp.Pools))
			sp.compose(counts, 0, pp, caps, func(c []int) {
				for _, b := range sp.Batches {
					if !explore.MicrobatchFeasible(b, pp) {
						continue
					}
					nub := explore.ChooseMicrobatches(b, pp, sp.MicrobatchTarget)
					cc := make([]int, len(c))
					copy(cc, c)
					cells = append(cells, HeteroCell{
						TP: tp, PP: pp, Counts: cc, Batch: b, Microbatches: nub,
						ID: cellID(sp.Pools, tp, pp, cc, b, nub),
					})
				}
			})
		}
	}
	return cells
}

// compose enumerates every assignment of rem stages across pools[k:] in
// lexicographic order (pool k's count ascending), respecting per-pool caps.
func (sp *HeteroSpace) compose(counts []int, k, rem int, caps []int, emit func([]int)) {
	if k == len(counts)-1 {
		if rem <= caps[k] {
			counts[k] = rem
			emit(counts)
			counts[k] = 0
		}
		return
	}
	max := rem
	if caps[k] < max {
		max = caps[k]
	}
	for c := 0; c <= max; c++ {
		counts[k] = c
		sp.compose(counts, k+1, rem-c, caps, emit)
	}
	counts[k] = 0
}

// cellID renders the deterministic identity string ranking ties break on.
func cellID(pools []Pool, tp, pp int, counts []int, batch, nub int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TP%d PP%d [", tp, pp)
	for k, pool := range pools {
		if k > 0 {
			b.WriteByte('+')
		}
		fmt.Fprintf(&b, "%s:%d", pool.Name, counts[k])
	}
	fmt.Fprintf(&b, "] B=%d m=%d", batch, nub)
	return b.String()
}

// pipeline builds and balances the hetero.Pipeline for a cell.
func (sp *HeteroSpace) pipeline(c *HeteroCell) (hetero.Pipeline, error) {
	stages := make([]hetero.Stage, 0, c.PP)
	for k, pool := range sp.Pools {
		for i := 0; i < c.Counts[k]; i++ {
			stages = append(stages, hetero.Stage{Accel: pool.Accel, TP: c.TP})
		}
	}
	pl := hetero.Pipeline{
		Model:        sp.Model,
		Stages:       stages,
		Batch:        parallel.Batch{Global: c.Batch, Microbatches: c.Microbatches},
		Operands:     sp.Operands,
		Eff:          sp.Eff,
		Interconnect: sp.Interconnect,
	}
	return pl.Balance()
}

// evaluate prices one cell through the discrete-event simulator, writing
// Value or Err in place.
func (sp *HeteroSpace) evaluate(c *HeteroCell) {
	pl, err := sp.pipeline(c)
	if err != nil {
		c.Err = err
		return
	}
	res, _, err := pl.Simulate(sp.schedule())
	if err != nil {
		c.Err = err
		return
	}
	c.Value = float64(res.Makespan) * float64(sp.numBatches())
}

// heteroBoundGuard absorbs the float-summation-order difference between the
// closed-form bound and the simulator's event-time accumulation: both sum
// the same stage durations, but in different association orders, so they
// can disagree by a few ULPs. Scaling the bound down by 1e-12 relative —
// orders of magnitude above the worst-case rounding drift for the ≤ 512
// additions involved, orders of magnitude below any real pruning margin —
// keeps the bound admissible without giving up meaningful cuts.
const heteroBoundGuard = 1 - 1e-12

// bound computes an admissible lower bound on a cell's rank without running
// the simulation: the classic pipeline bound
//
//	max over stages s of  fill(s) + m·(fwd_s + bwd_s) + drain(s)
//
// where fill(s) is the first microbatch's forward path to stage s, the
// middle term is stage s's serialized busy work, and drain(s) is the last
// backward's path from stage s to stage 0. Every one of those segments is
// on the critical path of any work-conserving schedule (GPipe and 1F1B
// included), so the simulated makespan can never be below it. Durations are
// the exact scaled values the simulator uses (fRef × stage scale), times
// the rounding guard.
func (sp *HeteroSpace) bound(c *HeteroCell) (float64, error) {
	pl, err := sp.pipeline(c)
	if err != nil {
		return 0, err
	}
	prof, err := pl.StageTimes()
	if err != nil {
		return 0, err
	}
	var fRef units.Seconds
	for _, f := range prof.Fwd {
		if f > fRef {
			fRef = f
		}
	}
	if fRef <= 0 {
		return 0, errors.New("plan: degenerate hetero stage times")
	}
	m := float64(prof.Microbatches)
	comm := float64(prof.Comm)
	var lb, fillF, drainB float64
	for _, f := range prof.Fwd {
		scale := float64(f) / float64(fRef)
		fs := float64(fRef) * scale
		bs := float64(2*fRef) * scale
		if cand := fillF + m*(fs+bs) + drainB; cand > lb {
			lb = cand
		}
		fillF += fs + comm
		drainB += bs + comm
	}
	return lb * heteroBoundGuard * float64(sp.numBatches()), nil
}

// cellRef is one heap entry: a cell's admissible bound and identity.
type cellRef struct {
	lb  float64
	id  string
	idx int
}

// cellHeap is a min-heap over (lb, id) — the same lexicographic order the
// incumbent comparison uses, so the peeked minimum is exactly the first
// cell that could still improve the result.
type cellHeap []cellRef

func (h cellHeap) Len() int { return len(h) }
func (h cellHeap) Less(i, j int) bool {
	if h[i].lb != h[j].lb {
		return h[i].lb < h[j].lb
	}
	return h[i].id < h[j].id
}
func (h cellHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *cellHeap) Push(x any)   { *h = append(*h, x.(cellRef)) }
func (h *cellHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// SolveHetero runs the best-first branch-and-bound search over the
// heterogeneous space, returning the identical optimum — exact Value and
// ID tie-break — that ExhaustiveHetero finds by evaluating every cell.
func SolveHetero(sp HeteroSpace) (*HeteroResult, error) {
	if err := sp.validate(); err != nil {
		return nil, err
	}
	cells := sp.enumerate()
	res := &HeteroResult{}
	st := &res.Stats
	st.CellsTotal = int64(len(cells))

	h := make(cellHeap, 0, len(cells))
	for i := range cells {
		lb, err := sp.bound(&cells[i])
		if err != nil {
			st.CellsInfeasible++
			continue
		}
		h = append(h, cellRef{lb: lb, id: cells[i].ID, idx: i})
	}
	heap.Init(&h)

	var bestRank float64
	var bestID string
	for h.Len() > 0 {
		c := h[0]
		if res.Best != nil &&
			(c.lb > bestRank || (c.lb == bestRank && c.id > bestID)) {
			st.CellsBounded = int64(h.Len())
			break
		}
		heap.Pop(&h)
		cell := &cells[c.idx]
		sp.evaluate(cell)
		st.CellsExpanded++
		if cell.Err != nil {
			continue
		}
		if res.Best == nil || cell.Value < bestRank ||
			(cell.Value == bestRank && c.id < bestID) {
			res.Best, bestRank, bestID = cell, cell.Value, c.id
		}
	}
	return res, nil
}

// ExhaustiveHetero evaluates every cell of the space through the identical
// evaluator and returns the optimum plus all evaluated cells — the oracle
// the equivalence property test cross-checks SolveHetero against.
func ExhaustiveHetero(sp HeteroSpace) (*HeteroCell, []HeteroCell, error) {
	if err := sp.validate(); err != nil {
		return nil, nil, err
	}
	cells := sp.enumerate()
	var best *HeteroCell
	for i := range cells {
		sp.evaluate(&cells[i])
		c := &cells[i]
		if c.Err != nil {
			continue
		}
		if best == nil || c.Value < best.Value ||
			(c.Value == best.Value && c.ID < best.ID) {
			best = c
		}
	}
	return best, cells, nil
}
