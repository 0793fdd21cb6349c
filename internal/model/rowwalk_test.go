package model

import (
	"fmt"
	"math"
	"testing"

	"amped/internal/efficiency"
	"amped/internal/hardware"
	"amped/internal/parallel"
	"amped/internal/transformer"
)

// countingEff is efficiency.Default counting its calls, so a walk can tell
// which cells its Row's degree-group memo served.
type countingEff struct{ n *int }

func (e countingEff) Eff(ub float64) float64 {
	*e.n++
	return efficiency.Default().Eff(ub)
}

// rowWalk is the fixture a Row walks: sessions on one 4×8 A100 machine —
// pure-FLOP and roofline pricing, a MoE model priced with expert
// parallelism, reliability — two batch lists per session, and a mapping
// pool with SP, CP up to 4, VPP up to 4 and mappings that overrun the
// model (TP above the heads, PP or PP·VPP above the layers) or do not tile
// the machine.
type rowWalk struct {
	sys      hardware.System
	sessions []*Session
	names    []string
	lists    [2][]int
	aggs     [][2]*Aggregates // per session, per batch list
	pool     []parallel.Mapping
	nubs     []int
	effCalls int
}

func newRowWalk(t testing.TB) *rowWalk {
	t.Helper()
	dense, err := transformer.Variant{KVHeads: 4}.Apply(transformer.Model{Name: "walk", Layers: 8,
		Hidden: 1024, Heads: 16, SeqLen: 512, Vocab: 32000, FFNRatio: 4})
	if err != nil {
		t.Fatal(err)
	}
	moe := dense
	moe.Name, moe.Experts, moe.MoEEvery, moe.TopK = "walk-moe", 8, 2, 2
	w := &rowWalk{
		sys: fitSystem(),
		// Non-positive and non-dividing batches fail the schedule check;
		// 100 divides only by DP ≤ 4.
		lists: [2][]int{{64, 96, 0, 256, 100, 128}, {128, 64, 512, -32}},
		nubs:  []int{0, 1, 2, 3, 4, 8, -1},
	}
	for _, sc := range []struct {
		name string
		m    transformer.Model
		tr   Training
	}{
		{"dense", dense, Training{NumBatches: 10}},
		{"dense-roofline", dense, Training{NumBatches: 10, Roofline: true, GradOverlap: 0.5}},
		{"moe-reliability", moe, Training{Reliability: testRelSpec(), NumBatches: 100}},
		{"moe-roofline-reliability", moe, Training{Roofline: true, Reliability: testRelSpec(), NumBatches: 100}},
	} {
		s, err := Compile(&sc.m, &w.sys, sc.tr, countingEff{&w.effCalls})
		if err != nil {
			t.Fatal(err)
		}
		w.sessions = append(w.sessions, s)
		w.names = append(w.names, sc.name)
		w.aggs = append(w.aggs, [2]*Aggregates{s.Aggregates(w.lists[0]), s.Aggregates(w.lists[1])})
	}
	for _, sp := range []bool{false, true} {
		w.pool = append(w.pool, parallel.Enumerate(&w.sys, parallel.EnumerateOptions{
			PowerOfTwo: true, MaxCP: 4, MaxVPP: 4, SequenceParallel: sp, ExpertParallel: true,
		})...)
	}
	w.pool = append(w.pool,
		parallel.Mapping{TPIntra: 3, DPInter: 4},          // 3 accelerators per node
		parallel.Mapping{TPIntra: 8, DPInter: 2},          // 2 nodes
		parallel.Mapping{TPIntra: -8, DPInter: 4},         // negative degree
		parallel.Mapping{TPIntra: 8, DPInter: 4, VPP: -1}) // negative VPP
	return w
}

// groupOf is a mapping's degree group, the part of the Row memo key a
// mapping sets.
func groupOf(mp parallel.Mapping) [5]int {
	var sp int
	if mp.SequenceParallel {
		sp = 1
	}
	return [5]int{mp.DP(), mp.PP(), mp.TP(), mp.CP(), sp}
}

// check prices cell (bi of list li, nub) on r, prepared with mp on session
// si, and requires it bit-equal to EvaluatePoint: the breakdown bits, the
// error text and the rank key. It returns the efficiency-model calls the
// row's pricing made and the cell's error.
func (w *rowWalk) check(t testing.TB, r *Row, si, li int, mp parallel.Mapping, bi, nub int) (int, error) {
	t.Helper()
	s, a := w.sessions[si], w.aggs[si][li]
	var row, point Breakdown
	before := w.effCalls
	key, err := s.PriceRowCell(r, a, bi, nub, &row)
	calls := w.effCalls - before
	perr := s.EvaluatePoint(mp, w.lists[li][bi], nub, &point)
	if fmt.Sprint(err) != fmt.Sprint(perr) || !sameBreakdown(row, point) {
		t.Fatalf("%s %v B=%d nub %d: row %v (%v), EvaluatePoint %v (%v)",
			w.names[si], mp, w.lists[li][bi], nub, row, err, point, perr)
	}
	want := 0.0
	if perr == nil {
		want = float64(point.ExpectedTotalTime())
	}
	if math.Float64bits(key) != math.Float64bits(want) {
		t.Fatalf("%s %v B=%d nub %d: rank key %v, want %v", w.names[si], mp, w.lists[li][bi], nub, key, want)
	}
	return calls, err
}

// prepare prepares r with mp on session si and checks the validation fast
// path against Mapping.Validate.
func (w *rowWalk) prepare(t testing.TB, r *Row, si int, mp parallel.Mapping) {
	t.Helper()
	w.sessions[si].PrepareRow(r, &mp)
	if verr := mp.Validate(&w.sys); fmt.Sprint(r.run.err) != fmt.Sprint(verr) {
		t.Fatalf("%v: prepared run error %v, Validate %v", mp, r.run.err, verr)
	}
}

// row prepares r with mp and prices every batch position of list li at
// nub. It returns the efficiency-model calls made and the cells priced.
func (w *rowWalk) row(t testing.TB, r *Row, si, li int, mp parallel.Mapping, nub int) (calls, priced int) {
	t.Helper()
	w.prepare(t, r, si, mp)
	for bi := range w.lists[li] {
		n, err := w.check(t, r, si, li, mp, bi, nub)
		calls += n
		if err == nil {
			priced++
		}
	}
	return calls, priced
}

// TestRowGroupMemoMatchesEvaluatePoint walks one Row through adversarial
// mapping orders on every session of the fixture — group A, then B, then A
// again; two mappings of one group that differ in their splits or VPP; a
// mapping that does not tile, and one that overruns the model, between two
// mappings of one group; one batch position priced at alternating raw
// N_ub; the Row moved to another batch list and to another session — and
// requires every cell bit-equal to EvaluatePoint, error text included. The
// efficiency-model calls show the memo serving the second mapping of a
// group and emptied by every other step.
func TestRowGroupMemoMatchesEvaluatePoint(t *testing.T) {
	w := newRowWalk(t)
	var r Row
	for _, mp := range w.pool {
		w.prepare(t, &r, 0, mp)
	}
	for si, name := range w.names {
		// a1 and a2 share a degree group and fit the model; b is in another
		// group; fit is in a1's group but overruns the model's layers with
		// its VPP; noTile does not tile the machine.
		fits := func(mp parallel.Mapping) bool {
			var run mappingRun
			w.sessions[si].prepareRun(&run, &mp)
			return run.err == nil && run.fitErr == nil
		}
		// a1 engages TP, PP and SP; a2 differs from it in VPP and splits.
		var a1, a2 parallel.Mapping
		for i, mp := range w.pool {
			if a1 != (parallel.Mapping{}) || mp.TP() < 2 || mp.PP() < 2 || !mp.SequenceParallel || !fits(mp) {
				continue
			}
			for _, mq := range w.pool[i+1:] {
				if groupOf(mq) == groupOf(mp) && mq.VPP != mp.VPP && mq.TPIntra != mp.TPIntra && fits(mq) {
					a1, a2 = mp, mq
					break
				}
			}
		}
		if a1 == (parallel.Mapping{}) {
			t.Fatalf("%s: no degree group with two fitting mappings", name)
		}
		// b has a1's degrees without sequence parallelism, which moves only
		// the roofline norm traffic.
		b := a1
		b.SequenceParallel = false
		fit := a1
		fit.VPP = 16
		noTile := parallel.Mapping{TPIntra: 3, DPInter: 4}

		// The first mapping of a group calls the efficiency model; a second
		// mapping of the group is served by the memo.
		if calls, priced := w.row(t, &r, si, 0, a1, 0); calls != priced || priced == 0 {
			t.Fatalf("%s: %v made %d efficiency calls for %d priced cells", name, a1, calls, priced)
		}
		if calls, _ := w.row(t, &r, si, 0, a2, 0); calls != 0 {
			t.Fatalf("%s: %v after %v made %d efficiency calls, want the memo's terms", name, a2, a1, calls)
		}
		// A mapping that does not tile empties the memo; one that overruns
		// the model keeps it (it is in the group) and prices nothing.
		w.row(t, &r, si, 0, noTile, 0)
		if calls, priced := w.row(t, &r, si, 0, a1, 0); calls != priced {
			t.Fatalf("%s: %v after a mapping that does not tile made %d efficiency calls for %d cells", name, a1, calls, priced)
		}
		w.row(t, &r, si, 0, fit, 0)
		if calls, _ := w.row(t, &r, si, 0, a2, 0); calls != 0 {
			t.Fatalf("%s: %v after %v made %d efficiency calls, want the memo's terms", name, a2, fit, calls)
		}
		// A → B → A: B's group empties the memo, and so does A's return.
		w.row(t, &r, si, 0, b, 0)
		if calls, priced := w.row(t, &r, si, 0, a1, 0); calls != priced {
			t.Fatalf("%s: %v after %v made %d efficiency calls for %d cells", name, a1, b, calls, priced)
		}
		// One batch position at alternating raw N_ub, on both group mates.
		for _, mp := range []parallel.Mapping{a1, a2} {
			w.prepare(t, &r, si, mp)
			for _, nub := range w.nubs {
				for _, again := range w.nubs {
					w.check(t, &r, si, 0, mp, 0, nub)
					w.check(t, &r, si, 0, mp, 0, again)
				}
			}
		}
		// The other batch list, then back: each move empties the memo.
		for _, li := range []int{1, 0} {
			if calls, priced := w.row(t, &r, si, li, a2, 0); calls != priced {
				t.Fatalf("%s: %v on batch list %d made %d efficiency calls for %d cells", name, a2, li, calls, priced)
			}
		}
		// The next session starts on this one's row, memo included.
	}
	// Release drops the session and the Aggregates, and the next walk of
	// the same mapping prices its group terms afresh.
	last := len(w.sessions) - 1
	mp := w.pool[0]
	w.row(t, &r, last, 0, mp, 0)
	r.Release()
	if r.key != (groupKey{}) || r.aggs != nil {
		t.Fatalf("released row still refers to session %p, aggregates %p", r.key.s, r.aggs)
	}
	if calls, priced := w.row(t, &r, last, 0, mp, 0); calls != priced || priced == 0 {
		t.Fatalf("%v after Release made %d efficiency calls for %d priced cells", mp, calls, priced)
	}
}

// FuzzRowWalk drives one Row through random sequences of sessions, batch
// lists, mappings (from the pool or built from the input, invalid degrees
// included), batch positions and raw N_ub, and requires every cell
// bit-equal to EvaluatePoint.
func FuzzRowWalk(f *testing.F) {
	w := newRowWalk(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Row
		si, li := 0, 0
		var mp parallel.Mapping
		prepared := false
		for len(data) >= 4 {
			op, x, y, z := data[0], int(data[1]), int(data[2]), int(data[3])
			data = data[4:]
			switch op % 8 {
			case 0: // another session, its aggregates
				si = x % len(w.sessions)
				prepared = false
			case 1: // the other batch list
				li = 1 - li
			case 2: // a mapping built from the input: degrees in -1..4
				d := func(v int) int { return v%6 - 1 }
				mp = parallel.Mapping{TPIntra: d(x), TPInter: d(x / 6), PPIntra: d(y), PPInter: d(y / 6),
					DPIntra: d(z), DPInter: d(z / 6), VPP: d(x / 36), SequenceParallel: y >= 128, ExpertParallel: z >= 128}
				w.prepare(t, &r, si, mp)
				prepared = true
			case 3: // release the row, then re-prepare the current mapping
				r.Release()
				if prepared {
					w.prepare(t, &r, si, mp)
				}
			case 4, 5: // a pool mapping, then one cell
				if m := w.pool[(x*7+int(op/8))%len(w.pool)]; !prepared || m != mp {
					mp = m
					w.prepare(t, &r, si, mp)
					prepared = true
				}
				w.check(t, &r, si, li, mp, y%len(w.lists[li]), w.nubs[z%len(w.nubs)])
			default: // one cell of the current mapping
				if prepared {
					w.check(t, &r, si, li, mp, y%len(w.lists[li]), w.nubs[z%len(w.nubs)])
				}
			}
		}
	})
}
