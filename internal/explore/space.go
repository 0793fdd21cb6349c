package explore

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"amped/internal/efficiency"
	"amped/internal/memkit"
	"amped/internal/model"
	"amped/internal/parallel"
)

// Space is one sweep's canonical cell enumeration, resolved once: the
// session (compiled when the scenario did not supply one), the ordered
// mapping list and every cell's microbatch schedule. Cell gi is
// (mappings[gi/len(Batches)], Batches[gi%len(Batches)]), exactly the order
// Options.CursorLo/CursorHi index. Any number of [lo, hi) ranges can then be
// priced against it without re-enumerating, through one worker-pool
// executor with two sinks: Sweep keeps every point, Top keeps only the best
// n. A Space is safe for concurrent use; it never mutates a supplied
// session.
type Space struct {
	sc       Scenario
	opt      Options
	sess     *model.Session
	mappings []parallel.Mapping

	// mu guards the lazy schedule table. rows[mi] is mapping mi's schedule
	// per batch, nil until a call's range first touches the mapping; a
	// call's workers only read rows its own prepare filled. The microbatch
	// choice depends on a mapping only through its (DP, PP) degrees, so
	// mappings sharing them share one row.
	mu        sync.Mutex
	rows      [][]schedule
	byDegrees map[[2]int][]schedule
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
// the executor passes it around; diagnose formats the real error for the
// cells that are kept.
var errUnfillable = errors.New("explore: pipeline cannot fill")

// NewSpace resolves a scenario and options into their cell enumeration. The
// options' CursorLo/CursorHi are ignored: the range is an argument of Sweep
// and Top. opt.Progress, when set, receives the instrumentation of every
// later Sweep or Top call.
func NewSpace(sc Scenario, opt Options) (*Space, error) {
	sc.resolveSession()
	mappings, err := resolveMappings(&sc, opt)
	if err != nil {
		return nil, err
	}
	// Compile the scenario once: invariants validated, Eq. 3–4 constants
	// hoisted, per-batch op aggregates cached — every worker then evaluates
	// points in O(1) with zero allocations on the hot path. A supplied
	// session skips both Compile and Prepare: it may be shared with other
	// sweeps running right now, and Prepare is single-writer. Unprepared
	// batches memoize safely through the session's side table.
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
		sess.Prepare(opt.Batches...)
	}
	return &Space{
		sc: sc, opt: opt, sess: sess, mappings: mappings,
		rows: make([][]schedule, len(mappings)), byDegrees: make(map[[2]int][]schedule),
	}, nil
}

// prepare validates the range [lo, hi) and fills the schedule rows of the
// mappings it touches. Every call runs it before any worker starts, so a
// space resolved once and swept in chunks chooses each schedule once, and a
// one-shot sweep of a small range pays only for the mappings it touches.
func (s *Space) prepare(lo, hi int64) error {
	if total := s.Cells(); lo < 0 || hi < lo || hi > total {
		return fmt.Errorf("explore: shard range [%d, %d) outside cell enumeration of size %d", lo, hi, total)
	}
	if lo == hi {
		return nil
	}
	nb := int64(len(s.opt.Batches))
	s.mu.Lock()
	defer s.mu.Unlock()
	for mi := lo / nb; mi <= (hi-1)/nb; mi++ {
		if s.rows[mi] != nil {
			continue
		}
		mp := s.mappings[mi]
		key := [2]int{mp.DP(), mp.PP()}
		row, ok := s.byDegrees[key]
		if !ok {
			row = make([]schedule, nb)
			for bi, b := range s.opt.Batches {
				row[bi] = s.schedule(mp, b)
			}
			s.byDegrees[key] = row
		}
		s.rows[mi] = row
	}
	return nil
}

// schedule picks a cell's microbatch schedule. Only dividing cells get a
// schedule chosen: b/dp truncates otherwise, and the truncated per-replica
// batch would pick an N_ub for a cell that does not exist. The non-dividing
// cell keeps the scenario's schedule and is rejected by Batch.Validate
// during evaluation.
func (s *Space) schedule(mp parallel.Mapping, b int) schedule {
	nub := s.sc.Training.Batch.Microbatches
	if dp, pp := mp.DP(), mp.PP(); s.opt.MicrobatchTarget > 0 && b%dp == 0 {
		per := b / dp
		if !MicrobatchFeasible(per, pp) {
			// No divisor of per satisfies N_ub >= pp: the pipeline can
			// never fill. Mark the cell infeasible instead of evaluating
			// ChooseMicrobatches' fallback schedule.
			return schedule{ub: per, unfillable: true}
		}
		nub = ChooseMicrobatches(per, pp, s.opt.MicrobatchTarget)
	}
	return schedule{nub: nub, ub: parallel.Batch{Global: b, Microbatches: nub}.MicrobatchesOrDefault(mp)}
}

// Cells is the size of the enumeration: the domain of Sweep and Top ranges.
func (s *Space) Cells() int64 { return int64(len(s.mappings)) * int64(len(s.opt.Batches)) }

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

// cell returns cell gi's mapping index, batch index and schedule.
func (s *Space) cell(gi int64) (mi, bi int64, c schedule) {
	nb := int64(len(s.opt.Batches))
	mi, bi = gi/nb, gi%nb
	return mi, bi, s.rows[mi][bi]
}

// at lays out cell gi into p. A pipeline-unfillable cell carries
// errUnfillable until diagnose replaces it.
func (s *Space) at(gi int64, p *Point) {
	mi, bi, c := s.cell(gi)
	*p = Point{Mapping: s.mappings[mi], Batch: s.opt.Batches[bi], Microbatches: c.ub, Fits: true, chosenNub: c.nub}
	if c.unfillable {
		p.Err = errUnfillable
	}
}

// diagnose formats a pipeline-unfillable cell's error.
func diagnose(p *Point) {
	if p.Err == errUnfillable {
		p.Err = fmt.Errorf(
			"explore: %v B=%d infeasible: pipeline depth %d exceeds per-replica batch %d, no microbatch count satisfies N_ub >= N_PP",
			p.Mapping, p.Batch, p.Mapping.PP(), p.Microbatches)
	}
}

// points lays out the cells [lo, hi) without evaluating them (Layout).
func (s *Space) points(lo, hi int64) ([]Point, error) {
	if err := s.prepare(lo, hi); err != nil {
		return nil, err
	}
	pts := make([]Point, hi-lo)
	for i := range pts {
		s.at(lo+int64(i), &pts[i])
		diagnose(&pts[i])
	}
	return pts, nil
}

// appendID appends cell gi's Point.String identity to b.
func (s *Space) appendID(b []byte, gi int64) []byte {
	var p Point
	s.at(gi, &p)
	return p.appendID(b)
}

// Sweep prices the cells [lo, hi) and returns every point in cell order,
// with SweepContext's contract: a cancelled sweep returns the points that
// finished alongside the context's error, and failed points are dropped
// unless Options.KeepInvalid.
func (s *Space) Sweep(ctx context.Context, lo, hi int64) ([]Point, error) {
	if err := s.prepare(lo, hi); err != nil {
		return nil, err
	}
	k := &pointSink{lo: lo, pts: make([]Point, hi-lo), bds: make([]model.Breakdown, hi-lo)}
	if s.sc.Memory != nil {
		k.fps = make([]memkit.Footprint, hi-lo)
	}
	cancelled := s.run(ctx, lo, hi, func() sink { return k })
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
// and its length, without materializing the range: each worker ranks cells
// straight off its reused EvaluateBatch output columns into its own size-n
// heap, and only the survivors are copied out, each owning its Breakdown.
// Memory is O(workers × worker chunk + n) whatever the range's size.
func (s *Space) Top(ctx context.Context, lo, hi int64, n int) (top []Point, completed int, err error) {
	if err := s.prepare(lo, hi); err != nil {
		return nil, 0, err
	}
	var sinks []*topSink
	cancelled := s.run(ctx, lo, hi, func() sink {
		k := &topSink{keepInvalid: s.opt.KeepInvalid, best: bestN[topEntry]{n: n, cmp: s.rank}}
		sinks = append(sinks, k)
		return k
	})
	// Each worker's heap holds its n best under a total order, so their
	// union holds the global n best.
	var all []topEntry
	for _, k := range sinks {
		completed += k.completed
		all = append(all, k.best.h...)
	}
	slices.SortFunc(all, s.rank)
	all = all[:min(n, len(all))]
	if len(all) > 0 {
		top = make([]Point, len(all))
		for i, e := range all {
			top[i] = e.sv.p
			diagnose(&top[i])
		}
	}
	return top, completed, cancelled
}

// sink receives one worker's finished cells. take is handed the cell's
// global index and a scratch point whose Breakdown and Footprint point into
// worker memory that the next cell or chunk overwrites: a sink keeps a cell
// only by copying it.
type sink interface {
	take(gi int64, p *Point)
}

// pointSink is Sweep's sink: every cell lands at its index, one sink
// shared by all workers (their cells are disjoint).
type pointSink struct {
	lo  int64
	pts []Point
	bds []model.Breakdown
	fps []memkit.Footprint // nil without a memory model
}

func (k *pointSink) take(gi int64, p *Point) {
	i := gi - k.lo
	k.pts[i] = *p
	if p.Breakdown != nil {
		k.bds[i] = *p.Breakdown
		k.pts[i].Breakdown = &k.bds[i]
	}
	if p.Footprint != nil {
		k.fps[i] = *p.Footprint
		k.pts[i].Footprint = &k.fps[i]
	}
	diagnose(&k.pts[i])
}

// topSink is Top's per-worker sink: the n best cells it was handed, each
// in a survivor slot reused on eviction.
type topSink struct {
	keepInvalid bool
	completed   int
	best        bestN[topEntry]
}

// topEntry is a kept cell's ranking key, indexed by cell, and its copy.
type topEntry struct {
	rankEntry
	sv *survivor
}

// survivor is a kept cell's point together with its Breakdown and
// Footprint held by value, so a survivor never aliases the worker's reused
// output columns.
type survivor struct {
	p  Point
	bd model.Breakdown
	fp memkit.Footprint
}

func (sv *survivor) set(p *Point) {
	sv.p = *p
	if p.Breakdown != nil {
		sv.bd = *p.Breakdown
		sv.p.Breakdown = &sv.bd
	}
	if p.Footprint != nil {
		sv.fp = *p.Footprint
		sv.p.Footprint = &sv.fp
	}
}

func (k *topSink) take(gi int64, p *Point) {
	if p.Err != nil && !k.keepInvalid {
		return
	}
	k.completed++
	e := topEntry{rankEntry: rankEntryOf(p, gi)}
	if !k.best.admits(e) {
		return
	}
	if len(k.best.h) < k.best.n {
		e.sv = new(survivor)
	} else {
		e.sv = k.best.h[0].sv // the evicted cell's slot
	}
	e.sv.set(p)
	k.best.push(e)
}

// rank is compareRank over cells. The cell index orders cells exactly as
// their points' positions in Sweep's result do, so Top and TopByTime agree.
func (s *Space) rank(a, b topEntry) int { return compareRank(a.rankEntry, b.rankEntry, s.appendID) }

// worker is one pool goroutine's scratch: the reused SoA columns plus the
// scalar fallback's breakdown, the memory footprint and the scratch point
// handed to sinks. Workers are pooled across calls, so a shard's chunk
// loop reuses the columns instead of reallocating them per chunk.
type worker struct {
	in  model.BatchInput
	out model.BatchOutput
	bd  model.Breakdown
	fp  memkit.Footprint
	p   Point
}

var workerPool = sync.Pool{New: func() any { return new(worker) }}

// run prices the cells [lo, hi) on a pool of workers and hands every
// finished cell to the claiming worker's sink (sinkFor is called once per
// worker, before any starts). Workers claim chunked index ranges off an
// atomic cursor instead of receiving per-index channel sends, cutting
// synchronization traffic and false sharing on adjacent cells, and price
// each chunk through Session.EvaluateBatch, which hoists config resolution,
// aggregate lookups and reliability gating out of the per-point loop.
//
// A cancelled context stops workers at their next chunk claim; run then
// returns the context's error after handing the sinks the pipeline-
// unfillable cells of the unclaimed tail, which were decided without
// evaluation and so count as finished.
func (s *Space) run(ctx context.Context, lo, hi int64, sinkFor func() sink) error {
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
	var cursor atomic.Int64
	cursor.Store(lo)
	var wg sync.WaitGroup
	for wi := range sinks {
		sinks[wi] = sinkFor()
		wg.Add(1)
		go func(k sink) {
			defer wg.Done()
			w := workerPool.Get().(*worker)
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
				if failed := s.evalChunk(w, start, end, k); failed > 0 {
					prog.Failed.Add(int64(failed))
				}
				prog.Completed.Add(end - start)
			}
		}(sinks[wi])
	}
	wg.Wait()
	cancelled := ctx.Err()
	if cancelled == nil {
		return nil
	}
	<-stamped
	lat := time.Now().UnixNano() - cancelledAt.Load()
	if lat < 1 {
		lat = 1 // a cancel observed faster than the clock tick still counts
	}
	prog.CancelLatencyNanos.Store(lat)
	// Every claimed chunk was priced whole, so the claims cover exactly
	// [lo, cursor) and the tail starts there.
	var p Point
	for gi := min(cursor.Load(), hi); gi < hi; gi++ {
		if _, _, c := s.cell(gi); c.unfillable {
			s.at(gi, &p)
			sinks[0].take(gi, &p)
		}
	}
	return cancelled
}

// evalChunk prices the cells [start, end) through the batched SoA path and
// hands each to k in cell order: the undecided cells are written straight
// from their global indices into the worker's reused input columns (cells
// pre-marked unfillable are already diagnosed), priced in one EvaluateBatch
// call, then read back from the output columns. It returns the number of
// failed cells.
//
// The batch call runs panic-isolated: a degenerate user-supplied efficiency
// model or an eventsim guard trip must not take down the worker pool. When
// it does panic, the points it finished before dying are still salvaged —
// EvaluateBatch writes a slot's code last, so an Evaluated() slot is a
// complete result — and only the remainder falls back to per-point scalar
// evaluation, which pins the panic to the exact cell that caused it instead
// of poisoning its chunk-mates.
func (s *Space) evalChunk(w *worker, start, end int64, k sink) (failed int) {
	in, out := &w.in, &w.out
	in.Mappings = in.Mappings[:0]
	in.Batches = in.Batches[:0]
	in.Microbatches = in.Microbatches[:0]
	for gi := start; gi < end; gi++ {
		mi, bi, c := s.cell(gi)
		if c.unfillable {
			continue
		}
		in.Mappings = append(in.Mappings, s.mappings[mi])
		in.Batches = append(in.Batches, s.opt.Batches[bi])
		in.Microbatches = append(in.Microbatches, c.nub)
	}
	salvage := true
	if n := in.Len(); n > 0 {
		batched := func() (done bool) {
			defer func() {
				if r := recover(); r != nil {
					done = false
				}
			}()
			return s.sess.EvaluateBatch(*in, out) == nil
		}()
		// On a panic the output columns are only meaningful if the call got
		// as far as sizing them for this chunk (it always does: nothing
		// before the resize runs user code — this is pure defense).
		salvage = batched || len(out.Codes) == n
	}
	p, j := &w.p, 0
	for gi := start; gi < end; gi++ {
		s.at(gi, p)
		if p.Err == nil {
			switch {
			case !salvage || !out.Codes[j].Evaluated():
				evalPointSafe(p, &w.bd, &w.fp, s.sess, &s.sc)
			case !out.Codes[j].OK():
				p.Err = out.Errs[j]
			default:
				p.Breakdown = &out.Breakdowns[j]
				estimateMemorySafe(p, &w.fp, &s.sc)
			}
			j++
		}
		if p.Err != nil {
			failed++
		}
		k.take(gi, p)
	}
	return failed
}
