// Package explore is AMPeD's design-space exploration engine: it sweeps
// parallelism mappings and batch sizes over a scenario (model + system +
// training recipe), evaluates every point with the analytical model
// concurrently, filters memory-infeasible points, and ranks the survivors.
// Case Studies I–III of the paper are thin drivers over this package.
package explore

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"

	"amped/internal/efficiency"
	"amped/internal/hardware"
	"amped/internal/memkit"
	"amped/internal/model"
	"amped/internal/parallel"
	"amped/internal/transformer"
)

// Scenario fixes everything a sweep does not vary.
type Scenario struct {
	// Name labels the sweep in reports.
	Name string
	// Model is the transformer architecture.
	Model *transformer.Model
	// System is the machine.
	System *hardware.System
	// Training carries the recipe knobs; Batch.Global and
	// Batch.Microbatches are overridden per point.
	Training model.Training
	// Eff is the microbatch-efficiency model (nil = efficiency.Default).
	Eff efficiency.Model
	// Memory, when non-nil, enables the feasibility filter.
	Memory *memkit.Config
	// MemoryReserve is the fraction of device memory held back for
	// framework overhead when filtering (e.g. 0.1).
	MemoryReserve float64
	// Session, when non-nil, supplies a pre-compiled session and the sweep
	// skips model.Compile; the session's own model, system, training recipe
	// and efficiency model override the fields above so the two can never
	// disagree. A compiled session is immutable apart from its concurrent
	// aggregate memo, so one cached session can serve any number of
	// concurrent sweeps — the serving layer's session-cache path.
	Session *model.Session
}

// Options selects what the sweep varies.
type Options struct {
	// Mappings lists explicit mappings to evaluate. Empty means enumerate
	// all mappings valid for the system via Enumerate.
	Mappings []parallel.Mapping
	// Enumerate configures the enumeration when Mappings is empty. MaxTP
	// and MaxPP default to the model's head and layer counts.
	Enumerate parallel.EnumerateOptions
	// Batches lists the global batch sizes to sweep (required).
	Batches []int
	// MicrobatchTarget sets the preferred microbatch size; the sweep picks
	// N_ub as the divisor of the per-replica batch nearest
	// perReplica/target, at least the pipeline depth so the pipeline can
	// fill. Zero keeps the scenario's Batch.Microbatches (or its default).
	MicrobatchTarget int
	// Concurrency bounds parallel evaluations (default: GOMAXPROCS).
	Concurrency int
	// KeepInvalid retains points whose evaluation failed (Err set) instead
	// of dropping them.
	KeepInvalid bool
	// CursorLo and CursorHi select a half-open slice [CursorLo, CursorHi)
	// of the canonical cell enumeration — mapping-major, batch-minor over
	// the deterministically ordered mappings × Batches, so cell index
	// idx maps to (mappings[idx/len(Batches)], Batches[idx%len(Batches)]).
	// Both zero sweeps the whole space. The serving layer uses the range to
	// shard one sweep across replicas; Cells reports the enumeration size.
	CursorLo, CursorHi int64
	// Progress, when non-nil, receives live sweep instrumentation: points
	// laid out, claimed by workers, completed and failed, plus the
	// cooperative-cancel latency. Counters are atomic, so a monitor
	// goroutine (amped-explore's -progress flag, the serving layer's
	// metrics) can read them while the sweep runs.
	Progress *Progress
}

// Progress is a sweep's live instrumentation, updated atomically by the
// worker pool and readable from any goroutine while the sweep runs. The
// zero value is ready to use; pass one in Options.Progress.
type Progress struct {
	// Total is the number of points laid out for evaluation.
	Total atomic.Int64
	// Claimed counts points handed to workers (chunk granularity: a chunk's
	// points are all claimed at once when a worker takes the chunk).
	Claimed atomic.Int64
	// Completed counts points whose evaluation finished (success or error).
	// Like Claimed it advances at chunk granularity: per-point atomics
	// would cost more than they observe.
	Completed atomic.Int64
	// Failed counts completed points whose evaluation set Err — including
	// points pre-marked infeasible at layout time.
	Failed atomic.Int64
	// Cut counts completed points a Space.Top worker did not price because
	// their compute floor was above its n-th best time, so they could not
	// rank among the top n. It advances once per chunk, like Completed,
	// and is always zero for Sweep. A cut point is not in Failed, even one
	// whose pricing would have failed with a non-finite time.
	Cut atomic.Int64
	// CancelLatencyNanos is the delay between context cancellation and the
	// last worker stopping — the cooperative-cancel latency (zero when the
	// sweep was never cancelled).
	CancelLatencyNanos atomic.Int64
}

// Point is one evaluated design point.
type Point struct {
	// Mapping and Batch identify the point.
	Mapping parallel.Mapping
	Batch   int
	// Microbatches is the N_ub the sweep chose.
	Microbatches int
	// Breakdown is the model's output (nil if Err is set).
	Breakdown *model.Breakdown
	// Footprint is the per-accelerator memory estimate when the scenario
	// enables the memory model.
	Footprint *memkit.Footprint
	// Fits reports the memory feasibility check (true when not checked).
	Fits bool
	// Err records an evaluation failure (invalid mapping/batch combos).
	Err error

	// chosenNub is the raw Microbatches value handed to the evaluator
	// (0 = derive the default); Microbatches above is the resolved N_ub.
	chosenNub int
}

// String identifies the point.
func (p Point) String() string {
	var buf [96]byte
	return string(p.appendID(buf[:0]))
}

// appendID appends the String identity to b: "<mapping> B=<batch>
// m=<microbatches>", built with strconv so ranking ties compare without
// allocating.
func (p *Point) appendID(b []byte) []byte {
	b = p.Mapping.AppendTo(b)
	b = append(b, " B="...)
	b = strconv.AppendInt(b, int64(p.Batch), 10)
	b = append(b, " m="...)
	return strconv.AppendInt(b, int64(p.Microbatches), 10)
}

// MicrobatchFeasible reports whether any microbatch schedule can satisfy
// N_ub >= pp for the per-replica batch: N_ub divides perReplica and a
// microbatch holds at least one sequence, so N_ub <= perReplica — when the
// pipeline is deeper than the per-replica batch no divisor qualifies and
// the pipeline can never fill. Sweeps mark such cells infeasible instead
// of silently evaluating a schedule that violates the N_ub >= N_PP
// contract (the model's Eq. 8 bubble term assumes a fillable pipeline).
func MicrobatchFeasible(perReplica, pp int) bool {
	return perReplica > 0 && pp <= perReplica
}

// ChooseMicrobatches picks N_ub for a per-replica batch: the divisor of
// perReplica closest to perReplica/target (i.e. microbatch size closest to
// target), but at least the pipeline depth pp so every stage can be busy.
//
// The "at least pp" guarantee only holds when a qualifying divisor exists,
// i.e. when MicrobatchFeasible(perReplica, pp): N_ub divides perReplica,
// so pp > perReplica leaves no valid choice and the function falls back to
// perReplica itself (microbatch 1) — a schedule that cannot fill the
// pipeline. Callers that enumerate mappings (the sweep) must treat that
// case as infeasible rather than evaluating the fallback.
//
// A want that divides perReplica is its own nearest divisor and returns
// at once (the common case: the target divides the per-replica batch);
// otherwise the candidates come from the memoized O(√n) divisor table, and
// ties keep the smallest divisor, matching the historical ascending scan.
func ChooseMicrobatches(perReplica, pp, target int) int {
	if perReplica <= 0 {
		return 1
	}
	if pp > perReplica {
		return perReplica
	}
	if target <= 0 {
		target = 1
	}
	want := perReplica / target
	if want < pp {
		want = pp
	}
	if want >= 1 && perReplica%want == 0 {
		return want
	}
	best := perReplica
	bestDist := perReplica
	for _, d := range parallel.Divisors(perReplica) {
		if d < pp {
			continue
		}
		dist := d - want
		if dist < 0 {
			dist = -dist
		}
		if dist < bestDist {
			best, bestDist = d, dist
		}
	}
	return best
}

// Sweep evaluates every (mapping, batch) combination and returns the points
// in deterministic (mapping-major, batch-minor) order.
func Sweep(sc Scenario, opt Options) ([]Point, error) {
	return SweepContext(context.Background(), sc, opt)
}

// SweepContext is Sweep with cooperative cancellation: workers check the
// context at chunk boundaries (every chunkSize points), so a cancelled or
// timed-out sweep stops within one chunk's worth of evaluations per worker
// and returns the context's error. Points completed before cancellation
// are returned alongside that error — explicitly labeled partial work, so
// a deadline-bound caller (the serving layer's 206 path) can hand back
// what finished instead of discarding it. Callers that must not act on a
// partial design space simply treat err != nil as fatal; the non-nil error
// makes the truncation impossible to miss.
func SweepContext(ctx context.Context, sc Scenario, opt Options) ([]Point, error) {
	s, err := NewSpace(sc, opt)
	if err != nil {
		return nil, err
	}
	lo, hi := s.span()
	return s.Sweep(ctx, lo, hi)
}

// Layout resolves the scenario (compiling a session when one was not
// supplied) and lays out the canonical cells [CursorLo, CursorHi) without
// pricing them, exactly as a Space's workers see them: mapping-major,
// batch-minor over the deterministically ordered mappings × Batches, each
// cell's microbatch schedule chosen by the function the workers' walk
// uses, pipeline-unfillable cells marked with Err. It materializes a Point
// per cell, so the sweep executor does not use it; it serves callers that
// price the cells themselves (benchmarks timing one layer at a time). The
// scenario is resolved in place.
func Layout(sc *Scenario, opt Options) ([]Point, *model.Session, error) {
	sc.resolveSession()
	s, err := NewSpace(*sc, opt)
	if err != nil {
		return nil, nil, err
	}
	pts, err := s.points(s.span())
	if err != nil {
		return nil, nil, err
	}
	return pts, s.sess, nil
}

// CellLowerBound returns model.Session.LowerBound for a laid-out cell,
// using the exact microbatch schedule the layout chose, so the bound and
// the cell's full evaluation price the same schedule.
func CellLowerBound(p *Point, sess *model.Session) (float64, error) {
	return sess.LowerBound(p.Mapping, p.Batch, p.chosenNub)
}

// ChosenMicrobatches exposes the raw N_ub value the layout handed to the
// evaluator for this cell (0 = derive the default) — the schedule identity
// external evaluators (the heterogeneous planner) need to reprice the cell.
func (p Point) ChosenMicrobatches() int { return p.chosenNub }

// resolveSession makes a supplied pre-compiled session the source of truth
// for everything it captured at Compile time.
func (sc *Scenario) resolveSession() {
	if sc.Session != nil {
		sc.Model = sc.Session.Model()
		sc.System = sc.Session.System()
		sc.Training = sc.Session.Training()
		sc.Eff = sc.Session.Eff()
	}
}

// resolveMappings validates the scenario/options pair and returns the
// deterministic mapping list the canonical cell enumeration is built over.
func resolveMappings(sc *Scenario, opt Options) ([]parallel.Mapping, error) {
	if sc.Model == nil || sc.System == nil {
		return nil, errors.New("explore: scenario needs a model and a system")
	}
	if len(opt.Batches) == 0 {
		return nil, errors.New("explore: no batch sizes to sweep")
	}
	if err := CheckEnumerate(sc.Model, opt.Enumerate); err != nil {
		return nil, err
	}
	mappings := MappingList(sc.Model, sc.System, opt.Mappings, opt.Enumerate)
	if len(mappings) == 0 {
		return nil, errors.New("explore: no mappings to evaluate")
	}
	return mappings, nil
}

// CheckEnumerate refuses enumeration options whose virtual-pipeline cap
// exceeds the model's layer count. Every VPP value adds one variant of each
// pipelined mapping, so an unchecked cap sizes the list without bound; a
// chunk count above L can never satisfy pp·vpp ≤ L with pp ≥ 2, so the
// refusal loses no cell that could be priced.
func CheckEnumerate(m *transformer.Model, en parallel.EnumerateOptions) error {
	if en.MaxVPP > m.Layers {
		return fmt.Errorf("explore: max VPP %d exceeds the model's %d layers", en.MaxVPP, m.Layers)
	}
	return nil
}

// MappingList is the mapping-list rule every search shares: an explicit
// list wins; otherwise every mapping parallel.Enumerate finds for sys, with
// MaxTP and MaxPP defaulting to the model's head and layer counts. Options
// that CheckEnumerate refuses yield nil. An empty result is left to the
// caller to report.
func MappingList(m *transformer.Model, sys *hardware.System, explicit []parallel.Mapping, en parallel.EnumerateOptions) []parallel.Mapping {
	if CheckEnumerate(m, en) != nil {
		return nil
	}
	if len(explicit) > 0 {
		return explicit
	}
	if en.MaxTP == 0 {
		en.MaxTP = m.Heads
	}
	if en.MaxPP == 0 {
		en.MaxPP = m.Layers
	}
	return parallel.Enumerate(sys, en)
}

// Cells reports the size of the canonical cell enumeration for a scenario
// and options — the domain of Options.CursorLo/CursorHi — without
// evaluating anything, for callers that need only the size. Shard
// coordinators have already resolved a Space and size their fan-out with
// Space.Cells instead. Unlike NewSpace it compiles no session, so it also
// sizes scenarios that would not compile.
func Cells(sc Scenario, opt Options) (int64, error) {
	sc.resolveSession()
	mappings, err := resolveMappings(&sc, opt)
	if err != nil {
		return 0, err
	}
	return int64(len(mappings)) * int64(len(opt.Batches)), nil
}

// Chunk size bounds for the executor. The floor keeps the per-chunk fixed
// overhead — the cursor claim, three progress updates, the panic guard, the
// search for the chunk's first degree-group run and, unless the worker
// already holds that run, refilling its columns (a schedule and the
// degree-group terms per batch position) — a small fraction of a chunk's
// evaluation time (a cell costs roughly 100–300 ns of CPU on the walk, so
// 128 cells take 13–40 µs). The ceiling keeps cancellation latency and load
// imbalance bounded on huge shards.
const (
	minChunk = 128
	maxChunk = 8192
)

// chunkSize sizes worker chunks adaptively: enough chunks per worker for
// load balance (expensive deep-pipeline cells cluster together in the
// mapping order), clamped to [minChunk, maxChunk] so chunks grow with the
// sweep — the executor amortizes per-chunk overhead across the whole
// chunk, so bigger sweeps take bigger bites. The chunk never exceeds the
// space itself: a CursorLo/CursorHi shard subrange smaller than the
// 128-cell clamp floor (the coordinator deals exact remainders) must yield
// one exact-fit chunk, not an overshooting claim whose end-clamp quietly
// hides the bad size. Degenerate inputs (n <= 0, workers <= 0) return the
// 1-cell floor: the cursor loop hands out nothing and exits on first claim.
func chunkSize(n, workers int) int {
	if n < 1 {
		return 1
	}
	if workers < 1 {
		workers = 1
	}
	c := n / (workers * 8)
	if c < minChunk {
		c = minChunk
	}
	if c > maxChunk {
		c = maxChunk
	}
	if c > n {
		c = n
	}
	return c
}

// estimateMemorySafe runs the scenario's optional memory feasibility check
// for one evaluated point, writing the footprint of its worst pipeline
// stage into fp. The breakdown stays on an estimation error (the model
// priced the point; the memory diagnosis rides in Err), and a panicking
// estimate becomes the point's Err.
func estimateMemorySafe(p *Point, fp *memkit.Footprint, sc *Scenario) {
	if sc.Memory == nil {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			p.Err = fmt.Errorf("explore: panic estimating memory for %v B=%d m=%d: %v",
				p.Mapping, p.Batch, p.Microbatches, r)
		}
	}()
	batch := parallel.Batch{Global: p.Batch, Microbatches: p.chosenNub}
	est, err := memkit.WorstStage(sc.Model, p.Mapping, batch, *sc.Memory)
	if err != nil {
		p.Err = err
		return
	}
	*fp = est
	p.Footprint = fp
	p.Fits = memkit.Fits(est, sc.System.Accel, sc.MemoryReserve)
}

// evalPointSafe prices one sweep cell alone through Session.EvaluatePoint,
// converting a panicking evaluation (a degenerate user-supplied efficiency
// model) into that point's Err instead of killing the process — one
// poisoned cell must not take down a long-running sweep service. The
// executor hands it the cells whose row pricing panicked.
func evalPointSafe(p *Point, bd *model.Breakdown, fp *memkit.Footprint, sess *model.Session, sc *Scenario) {
	defer func() {
		if r := recover(); r != nil {
			p.Breakdown = nil
			p.Footprint = nil
			p.Err = fmt.Errorf("explore: panic evaluating %v B=%d m=%d: %v",
				p.Mapping, p.Batch, p.Microbatches, r)
		}
	}()
	if p.Err = sess.EvaluatePoint(p.Mapping, p.Batch, p.chosenNub, bd); p.Err == nil {
		p.Breakdown = bd
		estimateMemorySafe(p, fp, sc)
	}
}

// SortByTime orders points fastest-first (infeasible and failed points
// last), stable across equal times by the point's string identity. The rank
// key is the expected total time — TotalTime inflated by the scenario's
// failure overhead — so a reliability-enabled sweep prefers the mapping that
// finishes first on a cluster that fails, not the one that would win on
// perfect hardware. Without a reliability spec the two are identical.
//
// Infeasible and failed points order by identity alone; points with equal
// identities (a duplicated batch size) keep their input order. Each point's
// key is computed once and an index permutation is sorted, so the points
// themselves move only once.
func SortByTime(points []Point) {
	order := make([]Rank, len(points))
	for i := range points {
		order[i] = rankOf(&points[i], int64(i))
	}
	slices.SortFunc(order, pointRank(points))
	// Apply the permutation in place, one cycle at a time: position j
	// receives the point order[j] names, and a placed slot is marked by
	// pointing it at itself.
	for i := range order {
		if int(order[i].Index) == i {
			continue
		}
		held := points[i]
		j := i
		for {
			k := int(order[j].Index)
			order[j].Index = int64(j)
			if k == i {
				points[j] = held
				break
			}
			points[j] = points[k]
			j = k
		}
	}
}

// TopByTime returns the first n points of the SortByTime ranking — exactly
// what SortByTime(points) followed by points[:n] yields — without sorting
// the whole space: a size-n max-heap on the same key keeps the n best in
// O(len(points)·log n) and only those survivors are sorted. points is not
// modified; the result is a fresh slice of min(n, len(points)) points.
// Space.Top ranks the same way without materializing the points.
func TopByTime(points []Point, n int) []Point {
	n = min(n, len(points))
	if n <= 0 {
		return nil
	}
	best := bestN[Rank]{n: n, cmp: pointRank(points)}
	for i := range points {
		if e := rankOf(&points[i], int64(i)); best.admits(e) {
			best.push(e)
		}
	}
	slices.SortFunc(best.h, best.cmp)
	out := make([]Point, n)
	for i, e := range best.h {
		out[i] = points[e.Index]
	}
	return out
}

// bestN keeps the n best entries offered to it under cmp in a max-heap:
// h[0] is the worst entry kept.
type bestN[E any] struct {
	h   []E
	n   int
	cmp func(a, b E) int
}

// admits reports whether e would be kept: the heap has room, or e ranks
// before its worst entry.
func (b *bestN[E]) admits(e E) bool {
	if len(b.h) < b.n {
		return true
	}
	return len(b.h) > 0 && b.cmp(b.h[0], e) > 0
}

// push keeps an admitted e, in place of the worst entry when full.
func (b *bestN[E]) push(e E) {
	h := b.h
	if len(h) < b.n {
		h = append(h, e)
		for c := len(h) - 1; c > 0; {
			p := (c - 1) / 2
			if b.cmp(h[c], h[p]) <= 0 {
				break
			}
			h[c], h[p] = h[p], h[c]
			c = p
		}
		b.h = h
		return
	}
	h[0] = e
	for p := 0; ; {
		c := 2*p + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && b.cmp(h[c+1], h[c]) > 0 {
			c++
		}
		if b.cmp(h[c], h[p]) <= 0 {
			break
		}
		h[c], h[p] = h[p], h[c]
		p = c
	}
}

// Rank is one point's position key in the SortByTime order, the input of
// CompareRank. Bucket is 0 for an evaluated point that fits, 1 for an
// evaluated point over its memory budget and 2 for a failure; Key is the
// expected total time in seconds of a bucket-0 point (zero otherwise, so
// the other buckets fall through to identity); Index is the final
// tie-break: the input index of a []Point, the cell index of a Space, a
// candidate's position in a merge.
type Rank struct {
	Key    float64
	Index  int64
	Bucket int
}

func rankOf(p *Point, idx int64) Rank {
	e := Rank{Index: idx, Bucket: pointOrder(p)}
	if e.Bucket == 0 {
		e.Key = float64(p.Breakdown.ExpectedTotalTime())
	}
	return e
}

// CompareRank orders two ranks the way SortByTime ranks points: bucket,
// key, String identity (id appends the identity of the point at an Index;
// it is rendered only on an exact key tie), then Index. The index makes
// the order total, so a heap selection, a full sort and a merge of
// per-chunk selections agree on every input. The server ranks its merge of
// wire points with it too.
func CompareRank(a, b Rank, id func(dst []byte, idx int64) []byte) int {
	if a.Bucket != b.Bucket {
		return a.Bucket - b.Bucket
	}
	if a.Key != b.Key {
		if a.Key < b.Key {
			return -1
		}
		return 1
	}
	var ida, idb [96]byte
	if c := bytes.Compare(id(ida[:0], a.Index), id(idb[:0], b.Index)); c != 0 {
		return c
	}
	return cmp.Compare(a.Index, b.Index)
}

// pointRank is CompareRank over ranks indexing points.
func pointRank(points []Point) func(a, b Rank) int {
	id := func(dst []byte, i int64) []byte { return points[i].appendID(dst) }
	return func(a, b Rank) int { return CompareRank(a, b, id) }
}

// pointOrder buckets points: evaluable+fits, evaluable, failed.
func pointOrder(p *Point) int {
	switch {
	case p.Err != nil:
		return 2
	case !p.Fits:
		return 1
	default:
		return 0
	}
}

// Best returns the fastest feasible point — the front of the SortByTime
// ranking when that front evaluated and fits — or nil when none did. Exact
// time ties break by identity, as they do in every other ranking.
func Best(points []Point) *Point {
	rank := pointRank(points)
	best := Rank{Index: -1}
	for i := range points {
		if e := rankOf(&points[i], int64(i)); e.Bucket == 0 && (best.Index < 0 || rank(e, best) < 0) {
			best = e
		}
	}
	if best.Index < 0 {
		return nil
	}
	return &points[best.Index]
}
