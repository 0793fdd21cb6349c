package explore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"amped/internal/efficiency"
	"amped/internal/memkit"
	"amped/internal/model"
	"amped/internal/parallel"
)

// Space is one sweep's canonical cell enumeration, resolved once: the
// session (compiled when the scenario did not supply one) and the ordered
// mappings, held as their degree-group table. Cell gi is (mapping
// gi/len(Batches), Batches[gi%len(Batches)]), exactly the order
// Options.CursorLo/CursorHi index. Any number of [lo, hi) ranges can then be
// priced against it without re-enumerating, through one worker-pool
// executor with two sinks: Sweep keeps every point, Top keeps only the best
// n. A Space stores no mapping list: a worker lists a group's mappings into
// its scratch when its walk enters the group. A Space is never written
// after NewSpace, so it is safe for concurrent use; it never mutates a
// supplied session.
type Space struct {
	order
	sc   Scenario
	opt  Options
	sess *model.Session
	aggs *model.Aggregates // the Eq. 2 aggregate of each opt.Batches position
}

// order is a mapping order held by degree group: the canonical
// enumeration's table, or the runs of an explicit list.
type order struct {
	table    *parallel.Table    // nil for an explicit list
	explicit []parallel.Mapping // Options.Mappings; never written
	// groups are table.Groups, or explicit's maximal runs of consecutive
	// mappings with equal DP, PP, TP, CP and sequence parallelism, each
	// one block (an A → B → A list is three runs). Every mapping of a
	// group shares each batch position's schedule and degree-group terms.
	groups []parallel.Group
}

// runs splits an explicit mapping list into its degree-group runs.
func runs(list []parallel.Mapping) []parallel.Group {
	var out []parallel.Group
	var prev [5]int
	for mi := range list {
		d := degreeGroup(&list[mi])
		if mi == 0 || d != prev {
			out = append(out, parallel.Group{DP: d[0], PP: d[1], TP: d[2], CP: d[3], Blocks: 1, First: int64(mi)})
			prev = d
		}
		out[len(out)-1].Splits++
	}
	return out
}

// len is the number of mappings in the order.
func (o *order) len() int64 {
	last := &o.groups[len(o.groups)-1]
	return last.First + last.Len()
}

// group returns the index of the group holding mapping mi.
func (o *order) group(mi int64) int {
	return sort.Search(len(o.groups), func(g int) bool { return o.groups[g].First > mi }) - 1
}

// appendGroup appends the mappings of group g to dst.
func (o *order) appendGroup(dst []parallel.Mapping, g int) []parallel.Mapping {
	if o.table != nil {
		return o.table.AppendGroup(dst, g)
	}
	gr := &o.groups[g]
	return append(dst, o.explicit[gr.First:gr.First+gr.Len()]...)
}

// mapping returns mapping mi, derived from the table: only cells laid out
// one at a time (a panicking cell's retry) need it.
func (o *order) mapping(mi int64) parallel.Mapping {
	if o.table != nil {
		return o.table.At(mi)
	}
	return o.explicit[mi]
}

// schedule is one (degrees, batch) cell's microbatch choice.
type schedule struct {
	// nub is the raw N_ub handed to the evaluator (0 = derive the default).
	nub int
	// ub is the resolved N_ub a point reports as Microbatches.
	ub int
	// unfillable marks a pipeline deeper than the per-replica batch: no
	// schedule can fill it, so the cell is infeasible without evaluation.
	unfillable bool
}

// errUnfillable stands in for a pipeline-unfillable cell's diagnosis while
// the executor passes it around; explain formats the real error for the
// cells that are kept.
var errUnfillable = errors.New("explore: pipeline cannot fill")

// NewSpace resolves a scenario and options into their cell enumeration. The
// options' CursorLo/CursorHi are ignored: the range is an argument of Sweep
// and Top. opt.Progress, when set, receives the instrumentation of every
// later Sweep or Top call.
func NewSpace(sc Scenario, opt Options) (*Space, error) {
	sc.resolveSession()
	o, err := resolveOrder(&sc, opt)
	if err != nil {
		return nil, err
	}
	// Compile the scenario once: invariants validated, Eq. 3–4 constants
	// hoisted — every worker then evaluates points in O(1) with zero
	// allocations on the hot path. A supplied session skips Compile; it may
	// be shared with other sweeps running right now, which is safe because
	// a compiled session only writes its concurrent aggregate memo.
	sess := sc.Session
	if sess == nil {
		eff := sc.Eff
		if eff == nil {
			eff = efficiency.Default()
		}
		sess, err = model.Compile(sc.Model, sc.System, sc.Training, eff)
		if err != nil {
			return nil, err
		}
	}
	return &Space{order: o, sc: sc, opt: opt, sess: sess, aggs: sess.Aggregates(opt.Batches)}, nil
}

// degreeGroup is what a cell's schedule and degree-group terms read of its
// mapping: the DP, PP, TP and CP degrees and sequence parallelism. The
// degrees are read off one normalized copy (each value-receiver degree
// method would copy the mapping again).
func degreeGroup(mp *parallel.Mapping) [5]int {
	n := *mp
	n.Normalize()
	var sp int
	if n.SequenceParallel {
		sp = 1
	}
	return [5]int{n.DPIntra * n.DPInter, n.PPIntra * n.PPInter, n.TPIntra * n.TPInter, n.CPIntra * n.CPInter, sp}
}

// checkRange refuses a range [lo, hi) outside the enumeration.
func (s *Space) checkRange(lo, hi int64) error {
	if total := s.Cells(); lo < 0 || hi < lo || hi > total {
		return fmt.Errorf("explore: shard range [%d, %d) outside cell enumeration of size %d", lo, hi, total)
	}
	return nil
}

// schedule picks the microbatch schedule of a cell of global batch b whose
// mapping has DP degree dp and PP degree pp (degreeGroup's). Only dividing
// cells get a schedule chosen: b/dp truncates otherwise, and the truncated
// per-replica batch would pick an N_ub for a cell that does not exist. The
// non-dividing cell keeps the scenario's schedule and is rejected by
// Batch.Validate during evaluation.
func (s *Space) schedule(dp, pp, b int) schedule {
	if s.opt.MicrobatchTarget > 0 && b%dp == 0 {
		per := b / dp
		if !MicrobatchFeasible(per, pp) {
			// No divisor of per satisfies N_ub >= pp: the pipeline can
			// never fill. Mark the cell infeasible instead of evaluating
			// ChooseMicrobatches' fallback schedule.
			return schedule{ub: per, unfillable: true}
		}
		// A chosen N_ub divides per and is at least 1, so it is its own
		// resolved count.
		nub := ChooseMicrobatches(per, pp, s.opt.MicrobatchTarget)
		return schedule{nub: nub, ub: nub}
	}
	// The default N_ub reads only the DP and PP degrees, so a mapping with
	// the group's stands in for the cell's.
	nub := s.sc.Training.Batch.Microbatches
	degrees := parallel.Mapping{DPInter: dp, PPInter: pp}
	return schedule{nub: nub, ub: parallel.Batch{Global: b, Microbatches: nub}.MicrobatchesOrDefault(degrees)}
}

// Cells is the size of the enumeration: the domain of Sweep and Top ranges.
func (s *Space) Cells() int64 { return s.len() * int64(len(s.opt.Batches)) }

// Session is the compiled session the space prices against: the scenario's
// own when it supplied one.
func (s *Space) Session() *model.Session { return s.sess }

// span resolves Options.CursorLo/CursorHi against the space: both zero
// selects every cell.
func (s *Space) span() (lo, hi int64) {
	if s.opt.CursorLo == 0 && s.opt.CursorHi == 0 {
		return 0, s.Cells()
	}
	return s.opt.CursorLo, s.opt.CursorHi
}

// lay lays out the cell of mapping mp at batch position bi into p: its
// identity and schedule, a pipeline-unfillable cell marked with
// errUnfillable. dp and pp are the DP and PP degrees of mp's group. The
// schedule is chosen again, by the function the executor's walk uses.
func (s *Space) lay(p *Point, mp *parallel.Mapping, dp, pp int, bi int64) {
	b := s.opt.Batches[bi]
	c := s.schedule(dp, pp, b)
	*p = Point{Mapping: *mp, Batch: b, Microbatches: c.ub, Fits: true, chosenNub: c.nub}
	if c.unfillable {
		p.Err = errUnfillable
	}
}

// at lays out cell gi into p alone, deriving its mapping from the table.
func (s *Space) at(gi int64, p *Point) {
	nb := int64(len(s.opt.Batches))
	mp, gr := s.mapping(gi/nb), &s.groups[s.group(gi/nb)]
	s.lay(p, &mp, gr.DP, gr.PP, gi%nb)
}

// layout lays out the cells [lo, hi) in order, listing each group's
// mappings once, and hands each to fn in one scratch point.
func (s *Space) layout(lo, hi int64, fn func(gi int64, p *Point)) {
	nb := int64(len(s.opt.Batches))
	var maps []parallel.Mapping
	var p Point
	for gi, g := lo, s.group(lo/nb); gi < hi; g++ {
		gr := &s.groups[g]
		maps = s.appendGroup(maps[:0], g)
		for end := min(hi, (gr.First+gr.Len())*nb); gi < end; gi++ {
			s.lay(&p, &maps[gi/nb-gr.First], gr.DP, gr.PP, gi%nb)
			fn(gi, &p)
		}
	}
}

// explain formats the error of a pipeline-unfillable cell, which carries
// errUnfillable while the executor passes it around.
func explain(p *Point) {
	if p.Err == errUnfillable {
		p.Err = fmt.Errorf(
			"explore: %v B=%d infeasible: pipeline depth %d exceeds per-replica batch %d, no microbatch count satisfies N_ub >= N_PP",
			p.Mapping, p.Batch, p.Mapping.PP(), p.Microbatches)
	}
}

// points lays out the cells [lo, hi) without evaluating them (Layout).
func (s *Space) points(lo, hi int64) ([]Point, error) {
	if err := s.checkRange(lo, hi); err != nil {
		return nil, err
	}
	pts := make([]Point, hi-lo)
	s.layout(lo, hi, func(gi int64, p *Point) {
		explain(p)
		pts[gi-lo] = *p
	})
	return pts, nil
}

// Sweep prices the cells [lo, hi) and returns every point in cell order,
// with SweepContext's contract: a cancelled sweep returns the points that
// finished alongside the context's error, and failed points are dropped
// unless Options.KeepInvalid.
func (s *Space) Sweep(ctx context.Context, lo, hi int64) ([]Point, error) {
	if err := s.checkRange(lo, hi); err != nil {
		return nil, err
	}
	k := &pointSink{lo: lo, pts: make([]Point, hi-lo), bds: make([]model.Breakdown, hi-lo), inf: math.Inf(1)}
	if s.sc.Memory != nil {
		k.fps = make([]memkit.Footprint, hi-lo)
	}
	_, cancelled := s.run(ctx, lo, hi, func() sink { return k })
	points := k.pts
	if cancelled != nil {
		// Keep only cells that actually finished (evaluated, or decided at
		// layout time); unclaimed cells are still zero-valued and must not
		// masquerade as results.
		points = slices.DeleteFunc(points, func(p Point) bool { return p.Err == nil && p.Breakdown == nil })
	}
	if !s.opt.KeepInvalid {
		points = slices.DeleteFunc(points, func(p Point) bool { return p.Err != nil })
	}
	return points, cancelled
}

// Top prices the cells [lo, hi) and returns the first n points of their
// SortByTime ranking, the number of points Sweep would have returned
// (completed) and Sweep's error — exactly TopByTime(Sweep(ctx, lo, hi), n)
// and its length, without materializing the range: each worker ranks its
// cells straight off its scratch breakdown into its own size-n heap, and
// only a heap admission copies the cell out, identity and Breakdown. Memory
// is O(workers × n) whatever the range's size.
//
// A worker does not price a cell that cannot enter its heap: once the heap
// holds n cells that evaluated and fit, a cell whose column compute floor
// (model.Column.Floor) is above the worst of their keys is cut; in an
// enumerated space, before the walk touches its point or its mapping's row.
// A cut cell counts as completed, and Progress.Cut counts it. The one case
// where this differs from Sweep: a cell that would have failed pricing
// with a non-finite time, but whose floor is above the cut, counts as
// completed instead of failed (and is not in Progress.Failed).
func (s *Space) Top(ctx context.Context, lo, hi int64, n int) (top []Point, completed int, err error) {
	if err := s.checkRange(lo, hi); err != nil {
		return nil, 0, err
	}
	var sinks []*topSink
	cut, cancelled := s.run(ctx, lo, hi, func() sink {
		k := &topSink{keepInvalid: s.opt.KeepInvalid, best: bestN[topEntry]{n: n}, incumbent: math.Inf(1)}
		k.best.cmp = k.rank
		if n <= 0 {
			k.incumbent = math.Inf(-1) // nothing enters the heap
		}
		sinks = append(sinks, k)
		return k
	})
	// Each worker's heap holds its n best under a total order, so their
	// union holds the global n best.
	completed = cut
	var all []topEntry
	for _, k := range sinks {
		completed += k.completed
		all = append(all, k.best.h...)
	}
	slices.SortFunc(all, sinks[0].rank) // every entry is kept, none offered
	all = all[:min(n, len(all))]
	if len(all) > 0 {
		top = make([]Point, len(all))
		for i, e := range all {
			top[i] = e.sv.p
		}
	}
	return top, completed, cancelled
}

// sink receives one worker's finished cells. take is handed the cell's
// global index, a scratch point carrying its identity and outcome — Err,
// Fits, the schedule and a Breakdown and Footprint that point into worker
// memory the next cell overwrites — and the cell's Rank: a sink keeps a
// cell by copying it out (keep). limit points at the rank key above which the sink has no
// use for a cell; the walk reads it before each cell, and does not price
// or hand on a cell whose column floor is above it.
type sink interface {
	take(gi int64, p *Point, r Rank)
	limit() *float64
}

// pointSink is Sweep's sink: every cell lands at its index, one sink
// shared by all workers (their cells are disjoint).
type pointSink struct {
	lo  int64
	pts []Point
	bds []model.Breakdown
	fps []memkit.Footprint // nil without a memory model
	inf float64            // +Inf: every cell is kept
}

func (k *pointSink) limit() *float64 { return &k.inf }

func (k *pointSink) take(gi int64, p *Point, _ Rank) {
	i := gi - k.lo
	var fp *memkit.Footprint
	if k.fps != nil {
		fp = &k.fps[i]
	}
	keep(p, &k.pts[i], &k.bds[i], fp)
}

// keep copies a scratch point p into dst, with p's Breakdown and Footprint
// copied into bd and fp (nil when the scenario has no memory model), so dst
// never aliases worker memory, and explains dst's error.
func keep(p, dst *Point, bd *model.Breakdown, fp *memkit.Footprint) {
	*dst = *p
	if p.Breakdown != nil {
		*bd = *p.Breakdown
		dst.Breakdown = bd
	}
	if p.Footprint != nil {
		*fp = *p.Footprint
		dst.Footprint = fp
	}
	explain(dst)
}

// topSink is Top's per-worker sink: the n best cells it was handed, each
// in a survivor slot reused on eviction.
type topSink struct {
	keepInvalid bool
	completed   int
	best        bestN[topEntry]
	// incumbent is the key of the worst cell in best once best holds n
	// cells that evaluated and fit, +Inf before, −Inf when n ≤ 0. A cell
	// whose key is above it cannot enter best.
	incumbent float64
	// offered is the scratch point of the cell take is offering best.
	offered *Point
}

func (k *topSink) limit() *float64 { return &k.incumbent }

// topEntry is a cell's ranking key, indexed by cell, and its copy, nil
// while the cell is offered.
type topEntry struct {
	Rank
	sv *survivor
}

// survivor is a kept cell's point together with its Breakdown and
// Footprint held by value, so a survivor never aliases worker memory.
type survivor struct {
	p  Point
	bd model.Breakdown
	fp memkit.Footprint
}

func (k *topSink) take(gi int64, p *Point, r Rank) {
	if p.Err != nil && !k.keepInvalid {
		return
	}
	k.completed++
	e := topEntry{Rank: r}
	if k.offered = p; !k.best.admits(e) {
		return
	}
	if len(k.best.h) < k.best.n {
		e.sv = new(survivor)
	} else {
		e.sv = k.best.h[0].sv // the evicted cell's slot
	}
	keep(p, &e.sv.p, &e.sv.bd, &e.sv.fp)
	k.best.push(e)
	if h := k.best.h; len(h) == k.best.n && h[0].Bucket == 0 {
		k.incumbent = h[0].Key
	}
}

// rank is CompareRank over cells, reading an identity off the kept cell's
// survivor or the offered cell's scratch point. The cell index orders
// cells exactly as their points' positions in Sweep's result do, so Top
// and TopByTime agree.
func (k *topSink) rank(a, b topEntry) int {
	if c := compareKey(a.Rank, b.Rank); c != 0 {
		return c
	}
	var ida, idb [96]byte
	return breakTie(a.Rank, b.Rank, k.point(a).appendID(ida[:0]), k.point(b).appendID(idb[:0]))
}

// point is the point an entry's identity is read from.
func (k *topSink) point(e topEntry) *Point {
	if e.sv == nil {
		return k.offered
	}
	return &e.sv.p
}

// worker is one pool goroutine's scratch: the prepared row of the mapping
// its walk is on, the mappings and columns of the degree group it is in,
// the breakdown and footprint the current cell prices into, and the scratch
// point handed to sinks. Workers are pooled across calls, so a shard's
// chunk loop does not reallocate them per chunk.
type worker struct {
	row  model.Row
	mi   int64              // the mapping index row holds; -1 for none
	g    int                // the group maps and cols hold; -1 for none
	maps []parallel.Mapping // the group's mappings
	cols []column           // per batch position
	bd   model.Breakdown
	fp   memkit.Footprint
	p    Point
}

// column is one batch position of a degree group: the schedule every
// mapping of the group shares there and the model's degree-group terms. The
// zero value is empty; each half fills on the first cell that needs it.
type column struct {
	set   bool // sched holds the position's schedule
	sched schedule
	terms model.Column
}

var workerPool = sync.Pool{New: func() any { return new(worker) }}

// getWorker takes a worker from the pool holding no row and no columns: a
// pooled worker's may belong to another space.
func getWorker() *worker {
	w := workerPool.Get().(*worker)
	w.mi, w.g = -1, -1
	return w
}

// run prices the cells [lo, hi) on a pool of workers and hands every
// finished cell to the claiming worker's sink (sinkFor is called once per
// worker, before any starts). Workers claim chunked index ranges off an
// atomic cursor instead of receiving per-index channel sends, cutting
// synchronization traffic and false sharing on adjacent cells, and price
// each chunk by degree group (evalChunk).
//
// It returns the number of cells the walk cut against their sinks' limits
// (finished, but never handed to a sink). A cancelled context stops
// workers at their next chunk claim; run then returns the context's error
// after handing the sinks the pipeline-unfillable cells of the unclaimed
// tail, which were decided without evaluation and so count as finished.
func (s *Space) run(ctx context.Context, lo, hi int64, sinkFor func() sink) (cut int, err error) {
	workers := s.opt.Concurrency
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	prog := s.opt.Progress
	if prog == nil {
		prog = new(Progress) // keeps the worker loop branch-free
	}
	prog.Total.Store(hi - lo)

	// Timestamp the moment of cancellation (if any) so the cooperative
	// cancel latency — cancel to last-worker-stop — is measurable. The
	// stamped channel lets the post-wait path block until the stamp exists:
	// once ctx.Err() is non-nil the AfterFunc goroutine is guaranteed to be
	// scheduled, but not to have run yet.
	var cancelledAt atomic.Int64
	stamped := make(chan struct{})
	stopAfter := context.AfterFunc(ctx, func() {
		cancelledAt.Store(time.Now().UnixNano())
		close(stamped)
	})
	defer stopAfter()

	chunk := int64(chunkSize(int(hi-lo), workers))
	sinks := make([]sink, workers)
	var cursor, cuts atomic.Int64
	cursor.Store(lo)
	var wg sync.WaitGroup
	for wi := range sinks {
		sinks[wi] = sinkFor()
		wg.Add(1)
		go func(k sink) {
			defer wg.Done()
			w := getWorker()
			defer workerPool.Put(w)
			for {
				// Cooperative cancellation, checked once per chunk claim:
				// cheap enough to leave the per-point path untouched, tight
				// enough that a cancelled sweep stops within one chunk.
				if ctx.Err() != nil {
					return
				}
				end := cursor.Add(chunk)
				start := end - chunk
				if start >= hi {
					return
				}
				end = min(end, hi)
				prog.Claimed.Add(end - start)
				failed, c := s.evalChunk(w, start, end, k)
				if failed > 0 {
					prog.Failed.Add(int64(failed))
				}
				if c > 0 {
					prog.Cut.Add(int64(c))
					cuts.Add(int64(c))
				}
				prog.Completed.Add(end - start)
			}
		}(sinks[wi])
	}
	wg.Wait()
	cut = int(cuts.Load())
	cancelled := ctx.Err()
	if cancelled == nil {
		return cut, nil
	}
	<-stamped
	lat := time.Now().UnixNano() - cancelledAt.Load()
	if lat < 1 {
		lat = 1 // a cancel observed faster than the clock tick still counts
	}
	prog.CancelLatencyNanos.Store(lat)
	// Every claimed chunk was priced whole, so the claims cover exactly
	// [lo, cursor) and the tail starts there.
	s.layout(min(cursor.Load(), hi), hi, func(gi int64, p *Point) {
		if p.Err != nil {
			sinks[0].take(gi, p, rankOf(p, gi))
		}
	})
	return cut, cancelled
}

// evalChunk prices the cells [start, end) and hands each to k in cell
// order, returning the number of failed cells and of cells cut against
// k's limit, which are not handed on. The walk is mapping-major,
// nested as degree group → mapping → batch position: the worker lists the
// group's mappings and empties its columns when the walk enters a group,
// cuts a cell at its column when the column's floor rules it out,
// prepares a mapping's row once on its first cell that is not cut, then
// prices each such cell against that row, the position's column and the
// space's positional aggregates into one scratch breakdown. A sink ranks
// the cell from its outcome and copies out only what it keeps.
//
// Pricing runs panic-isolated: a degenerate user-supplied efficiency model
// must not take down the worker pool. A panic stops priceCells at the cell
// that raised it; that one cell is laid out again and re-priced alone
// through evalPointSafe, which turns the panic into its Err, and the walk
// resumes after it, so a poisoned cell never costs its row-mates their
// results.
func (s *Space) evalChunk(w *worker, start, end int64, k sink) (failed, cut int) {
	for gi := start; gi < end; gi++ {
		if gi = s.priceCells(w, gi, end, k, &failed, &cut); gi < end {
			p := &w.p
			s.at(gi, p)
			evalPointSafe(p, &w.bd, &w.fp, s.sess, &s.sc)
			if p.Err != nil {
				failed++
			}
			k.take(gi, p, rankOf(p, gi))
		}
	}
	return failed, cut
}

// priceCells prices the cells [gi, end) through the worker's group and row
// and hands them to k, each ranked off the key its pricing returned,
// except the cells whose column cuts at k's limit (model.Column.Cuts),
// which it counts in cut. It returns end, or the index of a cell whose
// pricing panicked; that cell is not handed on. A column's schedule and
// its model terms each fill on the first cell of the group that needs
// them; the model writes its terms only once the efficiency model returns.
// The cut comes first, before the walk touches the cell's point or row: a
// table mapping tiles, so its fit verdict is its group's and its VPP's
// (Session.Fits), and a mapping whose every cell is cut prepares no row.
// An explicit list's cells take the verdict from their row, and
// PriceRowCell cuts them by the same rule. PrepareRow fills the row in
// place, so w.mi is cleared before it and names the row only once it
// returns: a panicking preparation leaves no half-built row in use. The
// walk writes the scratch point's identity, its mapping on the mapping's
// first cell that is not cut and its batch once per cell, and resets its
// outcome and schedule fields per cell; sinks copy the identity from it.
func (s *Space) priceCells(w *worker, gi, end int64, k sink, failed, cut *int) (stop int64) {
	defer func() {
		if recover() != nil {
			stop = gi
		}
	}()
	nb := int64(len(s.opt.Batches))
	mi, bi := gi/nb, gi%nb
	p, limit := &w.p, k.limit()
	for g := s.group(mi); gi < end; g++ {
		gr := &s.groups[g]
		if g != w.g {
			w.maps = s.appendGroup(w.maps[:0], g)
			w.cols = append(w.cols[:0], make([]column, nb)...)
			w.g = g
		}
		for last := gr.First + gr.Len(); mi < last && gi < end; mi, bi = mi+1, 0 {
			mp := &w.maps[mi-gr.First]
			fits := s.table != nil && s.sess.Fits(gr.TP, gr.PP, gr.CP, mp.VPP)
			named := false // p holds mp's identity
			for ; bi < nb && gi < end; gi, bi = gi+1, bi+1 {
				c := &w.cols[bi]
				if !c.set {
					c.sched, c.set = s.schedule(gr.DP, gr.PP, s.opt.Batches[bi]), true
				}
				if fits && c.terms.Cuts(*limit) {
					*cut++
					continue
				}
				if !named {
					p.Mapping, named = *mp, true
				}
				p.Breakdown, p.Footprint, p.Fits, p.Err = nil, nil, true, nil
				p.Batch, p.Microbatches, p.chosenNub = s.opt.Batches[bi], c.sched.ub, c.sched.nub
				var key float64
				if c.sched.unfillable {
					p.Err = errUnfillable
				} else {
					if mi != w.mi {
						w.mi = -1
						s.sess.PrepareRow(&w.row, mp)
						w.mi = mi
					}
					var over bool // the column floor is above the sink's limit
					if key, over, p.Err = s.sess.PriceRowCell(&w.row, &c.terms, s.aggs, int(bi), c.sched.nub, *limit, &w.bd); over {
						*cut++
						continue
					}
					if p.Err == nil {
						p.Breakdown = &w.bd
						if s.sc.Memory != nil {
							estimateMemorySafe(p, &w.fp, &s.sc)
						}
					}
				}
				r := Rank{Index: gi, Bucket: pointOrder(p)}
				if r.Bucket == 0 {
					r.Key = key
				}
				if p.Err != nil {
					*failed++
				}
				k.take(gi, p, r)
			}
		}
	}
	return end
}
