package explore

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"amped/internal/efficiency"
	"amped/internal/hardware"
	"amped/internal/model"
	"amped/internal/parallel"
	"amped/internal/transformer"
)

// panicEff is a deliberately degenerate efficiency model: it panics after
// `fuse` evaluations (fuse < 0 panics always). It reproduces the class of
// failure the sweep must survive — user-supplied efficiency models run
// arbitrary code inside the worker pool.
type panicEff struct{ fuse int64 }

func (p *panicEff) Eff(ub float64) float64 {
	if n := atomic.AddInt64(&p.fuse, -1); n < 0 {
		panic("panicEff: deliberate test panic")
	}
	return 0.5
}

func robustScenario(t *testing.T) Scenario {
	t.Helper()
	m := transformer.Megatron145B()
	sys := hardware.CaseStudy1System()
	return Scenario{Model: &m, System: &sys, Training: model.Training{NumBatches: 1}}
}

var robustOptions = Options{
	Batches:          []int{4096, 8192},
	Enumerate:        parallel.EnumerateOptions{PowerOfTwo: true},
	MicrobatchTarget: 128,
	KeepInvalid:      true,
}

func TestSweepRecoversPanickingEfficiencyModel(t *testing.T) {
	// A panicking evaluation must land in Point.Err with the cell identity
	// — not kill the process. Every worker hits it, so this also proves the
	// pool survives panics on all goroutines at once.
	sc := robustScenario(t)
	sc.Eff = &panicEff{fuse: -1}
	points, err := Sweep(sc, robustOptions)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no points returned")
	}
	for _, p := range points {
		if p.Err == nil {
			t.Fatalf("point %v evaluated despite panicking efficiency model", p)
		}
		msg := p.Err.Error()
		if !strings.Contains(msg, "panic") || !strings.Contains(msg, "deliberate test panic") {
			t.Fatalf("panic not captured in error: %v", p.Err)
		}
		// The cell identity must be recoverable from the error alone.
		if !strings.Contains(msg, p.Mapping.String()) || !strings.Contains(msg, "B=") {
			t.Fatalf("error lacks cell identity: %v", p.Err)
		}
		if p.Breakdown != nil {
			t.Fatalf("panicked point kept a breakdown: %v", p)
		}
	}

	// Dropping invalid points filters the poisoned cells without error.
	opt := robustOptions
	opt.KeepInvalid = false
	points, err = Sweep(sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 0 {
		t.Fatalf("poisoned cells survived the filter: %d points", len(points))
	}
}

// callPanicEff is efficiency.Default that panics on the calls whose
// 1-based sequence numbers are in at. With one worker the calls follow
// cell order, one per degree group and batch position, so a pair of
// consecutive numbers poisons exactly one cell that is the first of its
// degree group at its batch position: its pricing and the scalar retry of
// that same cell both panic.
type callPanicEff struct {
	calls atomic.Int64
	at    map[int64]bool
}

func (e *callPanicEff) Eff(ub float64) float64 {
	if e.at[e.calls.Add(1)] {
		panic("callPanicEff: deliberate test panic")
	}
	return efficiency.Default().Eff(ub)
}

func TestSweepRecoversPartialPanics(t *testing.T) {
	// Only some cells panic: the rest of the sweep must still evaluate.
	sc := robustScenario(t)
	sc.Eff = &panicEff{fuse: 25}
	points, err := Sweep(sc, robustOptions)
	if err != nil {
		t.Fatal(err)
	}
	var ok, panicked int
	for _, p := range points {
		switch {
		case p.Err == nil:
			ok++
		case strings.Contains(p.Err.Error(), "panic"):
			panicked++
		}
	}
	if ok == 0 || panicked == 0 {
		t.Fatalf("want a mix of evaluated and panicked cells, got ok=%d panicked=%d of %d",
			ok, panicked, len(points))
	}

	// One poisoned cell at a time — the first priced cell of the sweep,
	// the first and last cell of an inner worker chunk, a cell in the
	// middle of its mapping's row, the last poisonable cell (in the last
	// chunk) — fails alone: every other cell, its row-mates and the later
	// cells of its degree group included, prices bit-identically to
	// Session.EvaluatePoint. Only a cell that is the first of its degree
	// group at its batch position calls the efficiency model, so only such
	// a cell can be poisoned.
	eff := &callPanicEff{}
	sc.Eff = eff
	opt := robustOptions
	opt.Batches = []int{4096, 8192, 16384}
	opt.Concurrency = 1
	// Every run prices a fresh space, so no pooled worker carries a
	// degree-group memo into it and the call numbers follow cell order.
	space := func() *Space {
		sp, err := NewSpace(sc, opt)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	sp := space()
	total, nb := sp.Cells(), int64(len(opt.Batches))
	chunk := int64(chunkSize(int(total), 1))
	clean, err := sp.Sweep(context.Background(), 0, total)
	if err != nil {
		t.Fatal(err)
	}
	priced := func(gi int64) bool { return gi >= 0 && gi < total && clean[gi].Breakdown != nil }
	if total <= 2*chunk {
		t.Fatalf("%d cells in chunks of %d: want an inner chunk", total, chunk)
	}
	group := func(mi int64) [5]int {
		m := sp.Mappings()[mi]
		var seq int
		if m.SequenceParallel {
			seq = 1
		}
		return [5]int{m.DP(), m.PP(), m.TP(), m.CP(), seq}
	}
	// groupFirst reports whether no earlier mapping of gi's degree group
	// priced a cell at gi's batch position, so that gi's pricing calls the
	// efficiency model.
	groupFirst := func(gi int64) bool {
		mi, bi := gi/nb, gi%nb
		for mj := mi - 1; mj >= 0 && group(mj) == group(mi); mj-- {
			if priced(mj*nb + bi) {
				return false
			}
		}
		return true
	}
	poisonable := func(gi int64) bool { return priced(gi) && groupFirst(gi) }
	find := func(from int64, ok func(gi int64) bool) int64 {
		for gi := from; gi < total; gi++ {
			if poisonable(gi) && ok(gi) {
				return gi
			}
		}
		t.Fatalf("no poisonable cell from %d has the wanted position", from)
		return -1
	}
	last := total - 1
	for last >= 0 && !poisonable(last) {
		last--
	}
	poisons := map[string]int64{
		"first cell":  find(0, func(int64) bool { return true }),
		"chunk start": find(chunk, func(gi int64) bool { return gi%chunk == 0 }),
		"chunk end":   find(chunk, func(gi int64) bool { return gi%chunk == chunk-1 }),
		"mid-row": find(chunk, func(gi int64) bool {
			return gi%nb == 1 && priced(gi-1) && priced(gi+1) && gi%chunk != 0 && gi%chunk != chunk-1
		}),
		"last cell": last,
	}
	if !priced(total - 1) {
		t.Fatal("the last cell does not price")
	}
	if last/chunk != (total-1)/chunk {
		t.Fatalf("the last poisonable cell %d is not in the last chunk", last)
	}
	for name, gi := range poisons {
		// The poisoned cell's call number is one past the calls the cells
		// before it make.
		eff.at = nil
		eff.calls.Store(0)
		if _, err := space().Sweep(context.Background(), 0, gi); err != nil {
			t.Fatal(err)
		}
		k := eff.calls.Load() + 1
		eff.at = map[int64]bool{k: true, k + 1: true}
		eff.calls.Store(0)
		got, err := space().Sweep(context.Background(), 0, total)
		if err != nil {
			t.Fatal(err)
		}
		eff.at = nil
		if len(got) != len(clean) {
			t.Fatalf("%s: %d points, want %d", name, len(got), len(clean))
		}
		for i := range got {
			p := &got[i]
			if int64(i) == gi {
				if p.Err == nil || !strings.Contains(p.Err.Error(), "deliberate test panic") || p.Breakdown != nil {
					t.Fatalf("%s: poisoned cell %d (%v) = %v, breakdown %v; want its panic", name, gi, p, p.Err, p.Breakdown)
				}
				continue
			}
			if d := diffPoints(got[i:i+1], clean[i:i+1]); d != "" {
				t.Fatalf("%s: cell %d beside poisoned cell %d: %s", name, i, gi, d)
			}
			if p.Breakdown == nil {
				continue
			}
			var bd model.Breakdown
			if err := sp.Session().EvaluatePoint(p.Mapping, p.Batch, p.ChosenMicrobatches(), &bd); err != nil || !sameBits(*p.Breakdown, bd) {
				t.Fatalf("%s: cell %d (%v) differs from EvaluatePoint (%v)", name, i, p, err)
			}
		}
	}
}

func TestSweepContextCancellation(t *testing.T) {
	sc := robustScenario(t)

	// Already-cancelled context: no evaluation happens and no points are
	// returned (nothing completed, so the partial set is empty).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts, err := SweepContext(ctx, sc, robustOptions)
	if err != context.Canceled {
		t.Fatalf("pre-cancelled sweep returned %v, want context.Canceled", err)
	}
	if len(pts) != 0 {
		t.Fatalf("pre-cancelled sweep returned %d points, want 0", len(pts))
	}

	// Mid-sweep cancellation: the efficiency model pulls the plug after a
	// few evaluations; the sweep must stop at chunk boundaries and report
	// the context error alongside the points that completed before the
	// cancel — explicitly labeled partial work, never silently complete.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	sc.Eff = cancellingEff{cancel: cancel, after: 8, n: new(int64)}
	opt := robustOptions
	opt.Concurrency = 2
	pts, err = SweepContext(ctx, sc, opt)
	if err != context.Canceled {
		t.Fatalf("mid-sweep cancellation returned %v, want context.Canceled", err)
	}
	en := opt.Enumerate
	en.MaxTP = sc.Model.Heads
	en.MaxPP = sc.Model.Layers
	total := len(parallel.Enumerate(sc.System, en)) * len(opt.Batches)
	if len(pts) == 0 || len(pts) >= total {
		t.Fatalf("cancelled sweep returned %d of %d points, want a non-empty strict subset",
			len(pts), total)
	}
	for _, p := range pts {
		if p.Err == nil && p.Breakdown == nil {
			t.Fatalf("cancelled sweep leaked an unevaluated cell: %v", p)
		}
	}
}

// cancellingEff cancels its context after `after` evaluations.
type cancellingEff struct {
	cancel context.CancelFunc
	after  int64
	n      *int64
}

func (c cancellingEff) Eff(ub float64) float64 {
	if atomic.AddInt64(c.n, 1) == c.after {
		c.cancel()
	}
	return 0.5
}

func TestSweepSharedSession(t *testing.T) {
	// A sweep over a pre-compiled session must produce the same points as
	// one that compiles its own — and must work with the scenario's other
	// fields left empty (the serving layer only has the session).
	sc := robustScenario(t)
	want, err := Sweep(sc, robustOptions)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := model.Compile(sc.Model, sc.System, sc.Training, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Sweep(Scenario{Session: sess}, robustOptions)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("shared-session sweep: %d points, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Mapping != w.Mapping || g.Batch != w.Batch || g.Microbatches != w.Microbatches {
			t.Fatalf("point %d identity mismatch: %v vs %v", i, g, w)
		}
		if (g.Err == nil) != (w.Err == nil) {
			t.Fatalf("point %d error mismatch: %v vs %v", i, g.Err, w.Err)
		}
		if g.Err == nil && *g.Breakdown != *w.Breakdown {
			t.Fatalf("point %d breakdown mismatch", i)
		}
	}
}
