package explore

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"amped/internal/efficiency"
	"amped/internal/faults"
	"amped/internal/hardware"
	"amped/internal/model"
	"amped/internal/parallel"
	"amped/internal/transformer"
)

// countEff is efficiency.Default counting its calls.
type countEff struct{ n *atomic.Int64 }

func (e countEff) Eff(ub float64) float64 {
	e.n.Add(1)
	return efficiency.Default().Eff(ub)
}

// walkFixture is what the group walk is checked over: a 4×8 A100
// machine, an 8-layer GQA model small enough that TP, PP and PP·VPP
// overrun it inside degree groups, three scenarios whose sessions price
// compute differently (pure-FLOP; roofline with gradient overlap; MoE with
// expert parallelism, reliability and roofline), so a column carried from
// one session's space into another's shows, and the uncapped enumeration
// of the machine with SP on and off, CP and VPP up to 4 and EP.
type walkFixture struct {
	scs   []Scenario
	pool  []parallel.Mapping
	calls *atomic.Int64 // efficiency-model calls across every scenario
}

// walkBatches are the global batches a fuzzed space picks from: a zero
// and a negative batch, one DP 8 does not divide, one a deep pipeline
// cannot fill at DP 32.
var walkBatches = []int{64, 96, 0, 256, 100, 128, 512, -32}

func newWalkFixture(t testing.TB) *walkFixture {
	t.Helper()
	dense, err := transformer.Variant{KVHeads: 4}.Apply(transformer.Model{Name: "walk", Layers: 8,
		Hidden: 1024, Heads: 16, SeqLen: 512, Vocab: 32000, FFNRatio: 4})
	if err != nil {
		t.Fatal(err)
	}
	moe := dense
	moe.Name, moe.Experts, moe.MoEEvery, moe.TopK = "walk-moe", 8, 2, 2
	sys := hardware.System{Name: "walk", Accel: hardware.NvidiaA100(), Nodes: 4, AccelsPerNode: 8,
		Intra: hardware.NVLinkA100(), Inter: hardware.InfinibandHDR(), NICsPerNode: 8}
	rel := &faults.Spec{AccelMTBF: 5e6, CheckpointBW: 2e9, RestartTime: 300, OptimizerBytesPerParam: 12}
	f := &walkFixture{calls: new(atomic.Int64)}
	for _, sc := range []struct {
		m  transformer.Model
		tr model.Training
	}{
		{dense, model.Training{NumBatches: 10}},
		{dense, model.Training{NumBatches: 10, Roofline: true, GradOverlap: 0.5}},
		{moe, model.Training{NumBatches: 100, Roofline: true, Reliability: rel}},
	} {
		m := sc.m
		f.scs = append(f.scs, Scenario{Model: &m, System: &sys, Training: sc.tr, Eff: countEff{f.calls}})
	}
	for _, sp := range []bool{false, true} {
		f.pool = append(f.pool, parallel.Enumerate(&sys, parallel.EnumerateOptions{
			PowerOfTwo: true, MaxCP: 4, MaxVPP: 4, SequenceParallel: sp, ExpertParallel: true,
		})...)
	}
	return f
}

// variant derives a mapping in mp's degree group that does not price like
// it: 1 overruns the model's layers by its VPP (or asks VPP without PP),
// 2 moves TP's split across the node boundary, which does not tile unless
// the split is symmetric, 3 negates both TP degrees, which keeps their
// product and does not tile; 0 is mp itself.
func variant(mp parallel.Mapping, v int) parallel.Mapping {
	switch v {
	case 1:
		mp.VPP = 16
	case 2:
		mp.TPIntra, mp.TPInter = mp.TPInter, mp.TPIntra
	case 3:
		mp.TPIntra, mp.TPInter = -deg(mp.TPIntra), -deg(mp.TPInter)
	}
	return mp
}

func deg(d int) int {
	if d == 0 {
		return 1
	}
	return d
}

// walkSink checks every cell the executor hands it against a fresh layout
// of the cell (Layout's schedule) and Session.EvaluatePoint: the identity,
// the schedule,
// the error text, the breakdown bits and the rank. It records which cells
// it was handed and which priced, in slices the run's sinks share (their
// cells are disjoint). Workers call it, so it reports with Errorf.
type walkSink struct {
	allCells
	t      testing.TB
	s      *Space
	lo     int64
	seen   []bool
	priced []bool
	check  bool
	fails  *atomic.Int64
}

func (k *walkSink) take(gi int64, p *Point, r Rank) {
	i := gi - k.lo
	if k.seen[i] {
		k.fail("cell %d handed twice", gi)
	}
	k.seen[i], k.priced[i] = true, p.Breakdown != nil
	if !k.check {
		return
	}
	var want Point
	k.s.at(gi, &want)
	if p.Mapping != want.Mapping || p.Batch != want.Batch {
		k.fail("cell %d: walk identity %v B=%d, layout's %v", gi, p.Mapping, p.Batch, want)
		return
	}
	if p.Microbatches != want.Microbatches || p.chosenNub != want.chosenNub {
		k.fail("%v: walk schedule m=%d nub %d, layout's m=%d nub %d", want, p.Microbatches, p.chosenNub, want.Microbatches, want.chosenNub)
		return
	}
	var bd model.Breakdown
	werr := want.Err
	if werr == nil {
		werr = k.s.sess.EvaluatePoint(want.Mapping, want.Batch, want.chosenNub, &bd)
	}
	wr := Rank{Index: gi, Bucket: 2}
	if werr == nil {
		wr = Rank{Index: gi, Key: float64(bd.ExpectedTotalTime())}
	}
	switch {
	case fmt.Sprint(p.Err) != fmt.Sprint(werr):
		k.fail("%v: walk error %v, EvaluatePoint %v", want, p.Err, werr)
	case werr == nil && (p.Breakdown == nil || !sameBits(*p.Breakdown, bd)):
		k.fail("%v: walk breakdown %v, EvaluatePoint %v", want, p.Breakdown, bd)
	case werr != nil && p.Breakdown != nil:
		k.fail("%v: failed cell kept a breakdown", want)
	case r.Index != wr.Index || r.Bucket != wr.Bucket || math.Float64bits(r.Key) != math.Float64bits(wr.Key):
		k.fail("%v: walk rank %+v, EvaluatePoint's %+v", want, r, wr)
	case r != rankOf(p, gi):
		k.fail("%v: walk rank %+v, rankOf %+v", want, r, rankOf(p, gi))
	}
}

func (k *walkSink) fail(format string, args ...any) {
	if k.fails.Add(1) <= 3 {
		k.t.Errorf(format, args...)
	}
}

// walk prices [lo, hi) of sp through the executor and returns which cells
// priced. check compares every cell with EvaluatePoint; without it the
// sinks call nothing, so the efficiency-model calls are the walk's own.
// Every cell of the range must be handed on exactly once.
func walk(t testing.TB, sp *Space, lo, hi int64, check bool) []bool {
	t.Helper()
	if err := sp.checkRange(lo, hi); err != nil {
		t.Fatal(err)
	}
	seen, priced := make([]bool, hi-lo), make([]bool, hi-lo)
	fails := new(atomic.Int64)
	if _, err := sp.run(context.Background(), lo, hi, func() sink {
		return &walkSink{t: t, s: sp, lo: lo, seen: seen, priced: priced, check: check, fails: fails}
	}); err != nil {
		t.Fatal(err)
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("cell %d of [%d, %d) never handed on", lo+int64(i), lo, hi)
		}
	}
	if fails.Load() > 0 {
		t.FailNow()
	}
	return priced
}

// walkPair walks [lo, hi) on two spaces over the same options, one per
// scenario, back to back through the worker pool, and checks Top(lo, hi,
// n) on each against TopByTime over Sweep.
func (f *walkFixture) walkPair(t testing.TB, si int, opt Options, lo, hi int64, n int) {
	t.Helper()
	for _, sc := range []Scenario{f.scs[si], f.scs[(si+1)%len(f.scs)]} {
		sp, err := NewSpace(sc, opt)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := min(lo, sp.Cells()), min(hi, sp.Cells())
		walk(t, sp, lo, hi, true)
		want, err := sp.Sweep(context.Background(), lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		top, completed, err := sp.Top(context.Background(), lo, hi, n)
		if err != nil {
			t.Fatal(err)
		}
		if completed != len(want) {
			t.Fatalf("[%d, %d) n=%d: Top completed %d, Sweep returned %d", lo, hi, n, completed, len(want))
		}
		if d := diffPoints(top, TopByTime(want, n)); d != "" {
			t.Fatalf("[%d, %d) n=%d: Top differs from TopByTime over Sweep: %s", lo, hi, n, d)
		}
	}
}

// TestSpaceWalkMatchesEvaluatePoint sweeps adversarial spaces through the
// group walk on every scenario of the fixture — an explicit list of group
// A (two mates differing in splits and VPP, then a mate overrunning the
// model and two that do not tile), group C (A's DP and PP with another TP
// and CP), group B (A without SP), then A again with a duplicate;
// the enumerated space — each whole, on ranges that start and end inside
// a group run and on one cell, under the default and a chosen microbatch
// schedule, on two workers over the scenario's space and then over the
// next scenario's through the worker pool. Every cell must equal EvaluatePoint
// in its schedule, error text, breakdown bits and rank. On one worker the
// efficiency model is called once per group run and batch position that
// prices, which shows the group's terms shared.
func TestSpaceWalkMatchesEvaluatePoint(t *testing.T) {
	f := newWalkFixture(t)
	group := func(mp parallel.Mapping) [5]int { return degreeGroup(&mp) }
	// a1 and a2 are mates of a fitting group with TP, PP and SP engaged
	// that differ in their splits and VPP; c has their DP and PP with
	// another TP (and so another CP); b is a1 without SP, which moves only
	// the roofline norm traffic.
	var a1, a2, c, none parallel.Mapping
	for i, mp := range f.pool {
		if a1 != none || mp.TP() < 2 || mp.TP() > 16 || mp.PP() < 2 || mp.PP()*deg(mp.VPP) > 8 || !mp.SequenceParallel {
			continue
		}
		a2, c = none, none
		for _, mq := range f.pool[i+1:] {
			if group(mq) == group(mp) && mq.VPP != mp.VPP && mq.TPIntra != mp.TPIntra {
				a2 = mq
				break
			}
		}
		for _, mq := range f.pool {
			if mq.DP() == mp.DP() && mq.PP() == mp.PP() && mq.SequenceParallel && mq.TP() != mp.TP() && mq.TP() <= 16 {
				c = mq
				break
			}
		}
		if a2 != none && c != none {
			a1 = mp
		}
	}
	if a1 == none {
		t.Fatal("no degree group with two mates differing in splits and VPP and a neighbour differing in TP")
	}
	b := a1
	b.SequenceParallel = false
	explicit := []parallel.Mapping{a1, a2, variant(a1, 1), variant(a1, 2), variant(a1, 3), c, b, a1, a1, a2}
	batches := []int{64, 256, 0, 128, 96}

	for si := range f.scs {
		for _, target := range []int{0, 128} {
			for _, list := range []string{"explicit", "enumerated"} {
				opt := Options{Batches: batches, MicrobatchTarget: target, Concurrency: 2}
				if list == "explicit" {
					opt.Mappings = explicit
				} else {
					opt.Enumerate = parallel.EnumerateOptions{PowerOfTwo: true, MaxCP: 4, MaxVPP: 4, SequenceParallel: true}
				}
				sp, err := NewSpace(f.scs[si], opt)
				if err != nil {
					t.Fatal(err)
				}
				if runs := len(sp.groups); list == "explicit" && runs != 4 {
					t.Fatalf("explicit A → C → B → A list: %d group runs %+v, want 4", runs, sp.groups)
				}
				// The widest group, cut one cell in from each end.
				nb, g := int64(len(batches)), 0
				for i := range sp.groups {
					if sp.groups[i].Len() > sp.groups[g].Len() {
						g = i
					}
				}
				lo, hi := sp.groups[g].First*nb+1, (sp.groups[g].First+sp.groups[g].Len())*nb-1
				name := fmt.Sprintf("scenario %d target %d %s", si, target, list)
				for _, r := range [][2]int64{{0, sp.Cells()}, {lo, hi}, {lo, lo + 1}, {lo + nb, sp.Cells()}} {
					f.walkPair(t, si, opt, r[0], r[1], 3)
					if t.Failed() {
						t.Fatalf("%s, cells [%d, %d)", name, r[0], r[1])
					}
				}

				opt.Concurrency = 1
				sp, err = NewSpace(f.scs[si], opt)
				if err != nil {
					t.Fatal(err)
				}
				before := f.calls.Load()
				priced := walk(t, sp, 0, sp.Cells(), false)
				calls := f.calls.Load() - before
				var want int64
				for _, gr := range sp.groups {
					for bi := range nb {
						for mi := gr.First; mi < gr.First+gr.Len(); mi++ {
							if priced[mi*nb+bi] {
								want++
								break
							}
						}
					}
				}
				if calls != want || want == 0 {
					t.Fatalf("%s: %d efficiency calls, want %d (one per group run and batch position that prices)", name, calls, want)
				}
			}
		}
	}
}

// TestGroupFitMatchesRow pins what the walk's early cut relies on: for
// every mapping of the fixture's enumerated spaces (CP and VPP up to 4, so
// groups whose later VPP blocks overrun the 8 layers, and groups whose TP
// overruns the heads), the fit verdict taken from its group's degrees and
// its own VPP (Session.Fits) is PrepareRow's. The row's verdict is read off
// one cell at batch DP·PP under the default schedule, which always
// validates (one sample per microbatch), so that cell fails exactly when
// the row carries a run or fit error.
func TestGroupFitMatchesRow(t *testing.T) {
	f := newWalkFixture(t)
	var fit, unfit, mixed int
	for si, sc := range f.scs {
		for _, sp := range []bool{false, true} {
			s, err := NewSpace(sc, Options{Batches: []int{64}, Enumerate: parallel.EnumerateOptions{
				PowerOfTwo: true, MaxCP: 4, MaxVPP: 4, SequenceParallel: sp, ExpertParallel: true,
			}})
			if err != nil {
				t.Fatal(err)
			}
			var maps []parallel.Mapping
			var row model.Row
			var bd model.Breakdown
			for g := range s.groups {
				gr := &s.groups[g]
				aggs := s.sess.Aggregates([]int{gr.DP * gr.PP})
				maps = s.appendGroup(maps[:0], g)
				var sawFit, sawUnfit bool
				for _, mp := range maps {
					s.sess.PrepareRow(&row, &mp)
					_, _, rowErr := s.sess.PriceRowCell(&row, new(model.Column), aggs, 0, 0, math.Inf(1), &bd)
					got := s.sess.Fits(gr.TP, gr.PP, gr.CP, mp.VPP)
					if got != (rowErr == nil) {
						t.Fatalf("scenario %d SP %v: %v in group %+v: group verdict fits = %v, PrepareRow's %v", si, sp, mp, *gr, got, rowErr)
					}
					if got {
						fit, sawFit = fit+1, true
					} else {
						unfit, sawUnfit = unfit+1, true
					}
				}
				if sawFit && sawUnfit {
					mixed++
				}
			}
		}
	}
	if fit == 0 || unfit == 0 || mixed == 0 {
		t.Fatalf("fixture lost its point: %d mappings fit, %d do not, %d groups hold both", fit, unfit, mixed)
	}
	t.Logf("%d mappings fit, %d do not; %d groups hold both", fit, unfit, mixed)
}

// FuzzSpaceWalk sweeps random spaces through the group walk: a scenario of
// the fixture, a microbatch target, one or two workers, failed cells kept
// or dropped, a top n, one to three batches (duplicates, zero, negative
// and non-dividing ones included), an enumerated mapping list or an
// explicit one of pool mappings and their in-group variants (variant), and
// up to four [lo, hi) ranges, each walked on the scenario's space and then
// on the next scenario's through the worker pool. Every cell must equal
// EvaluatePoint (walkSink), and Top over the range, which cuts cells by
// their compute floor, must equal TopByTime over Sweep.
func FuzzSpaceWalk(f *testing.F) {
	fx := newWalkFixture(f)
	targets := []int{0, 1, 16, 128}
	tops := []int{0, 1, 2, 3, 5, 20, 1 << 20}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		si := int(data[0]) % len(fx.scs)
		opt := Options{
			MicrobatchTarget: targets[data[1]%4],
			Concurrency:      1 + int(data[1]>>2&1),
			KeepInvalid:      data[1]>>3&1 != 0,
		}
		n := tops[int(data[1]>>4)%len(tops)]
		nb := 1 + int(data[2]%3)
		data = data[3:]
		for ; nb > 0 && len(data) > 0; nb, data = nb-1, data[1:] {
			opt.Batches = append(opt.Batches, walkBatches[int(data[0])%len(walkBatches)])
		}
		if len(opt.Batches) == 0 || len(data) == 0 {
			return
		}
		if data0 := data[0]; data0&1 == 0 {
			// An enumerated list: SP, CP ≤ 1/2/4 and VPP ≤ 1/2/4.
			opt.Enumerate = parallel.EnumerateOptions{PowerOfTwo: true, SequenceParallel: data0&2 != 0,
				MaxCP: []int{0, 2, 4}[int(data0>>2)%3], MaxVPP: []int{0, 2, 4}[int(data0>>4)%3], ExpertParallel: true}
			data = data[1:]
		} else {
			// An explicit list of n mappings, two bytes each: a pool index
			// and, in the top two bits, the variant.
			n := 1 + int(data0>>1)%24
			data = data[1:]
			for ; n > 0 && len(data) >= 2; n, data = n-1, data[2:] {
				mp := fx.pool[(int(data[0])<<6|int(data[1]&63))%len(fx.pool)]
				opt.Mappings = append(opt.Mappings, variant(mp, int(data[1]>>6)))
			}
			if len(opt.Mappings) == 0 {
				return
			}
		}
		cells, err := Cells(fx.scs[si], opt)
		if err != nil {
			t.Fatal(err)
		}
		at := func(b byte) int64 { return int64(b) * cells / 255 }
		if len(data) < 2 {
			fx.walkPair(t, si, opt, 0, cells, n)
			return
		}
		for r := 0; r < 4 && len(data) >= 2; r, data = r+1, data[2:] {
			lo, hi := at(data[0]), at(data[1])
			fx.walkPair(t, si, opt, min(lo, hi), max(lo, hi), n)
		}
	})
}
