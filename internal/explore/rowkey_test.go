package explore

import (
	"context"
	"fmt"
	"math"
	"testing"

	"amped/internal/faults"
	"amped/internal/model"
	"amped/internal/parallel"
)

// keySink checks every cell the executor hands it: the Rank built from the
// row's priced key must equal rankOf's, which sums the breakdown again,
// bit for bit, and the breakdown must equal EvaluatePoint's. It counts the
// priced cells whose microbatch size repeats the previous priced cell's in
// the same row: those are the cells the row's communication memo serves.
// Its space runs one worker, so the counters need no lock.
type keySink struct {
	allCells
	t       *testing.T
	s       *Space
	fails   int
	priced  int
	repeats int
	prevMi  int64
	prevUB  float64
}

func (k *keySink) take(gi int64, p *Point, r Rank) {
	fail := func(format string, args ...any) {
		if k.fails++; k.fails <= 3 {
			k.t.Errorf(format, args...)
		}
	}
	if want := rankOf(p, gi); r.Index != want.Index || r.Bucket != want.Bucket ||
		math.Float64bits(r.Key) != math.Float64bits(want.Key) {
		fail("cell %d: row rank %+v, rankOf %+v", gi, r, want)
	}
	if p.Breakdown == nil {
		return
	}
	k.priced++
	q := *p
	k.s.identify(gi, &q)
	var bd model.Breakdown
	if err := k.s.sess.EvaluatePoint(q.Mapping, q.Batch, q.chosenNub, &bd); err != nil || !sameBits(bd, *p.Breakdown) {
		fail("%v: row breakdown differs from EvaluatePoint (%v)", q, err)
	}
	if key := float64(bd.ExpectedTotalTime()); math.Float64bits(r.Key) != math.Float64bits(key) {
		fail("%v: row rank key %v, EvaluatePoint's ExpectedTotalTime %v", q, r.Key, key)
	}
	mi := gi / int64(len(k.s.opt.Batches))
	if mi == k.prevMi && p.Breakdown.Microbatch == k.prevUB {
		k.repeats++
	}
	k.prevMi, k.prevUB = mi, p.Breakdown.Microbatch
}

// TestRowRankKeyMatchesExpectedTotalTime checks the rank key the row API
// returns against Breakdown.ExpectedTotalTime on every priced cell, with
// the communication memo missing every cell (MicrobatchTarget 0: the
// default N_ub = N_PP makes the microbatch size differ per batch) and
// serving the cells whose chosen microbatch size repeats (MicrobatchTarget
// 128), roofline pricing on and off, with and without a reliability
// section.
func TestRowRankKeyMatchesExpectedTotalTime(t *testing.T) {
	rel := &faults.Spec{AccelMTBF: 5e6, CheckpointBW: 2e9, RestartTime: 300, OptimizerBytesPerParam: 12}
	for _, target := range []int{0, 128} {
		for _, roofline := range []bool{false, true} {
			for _, spec := range []*faults.Spec{nil, rel} {
				name := fmt.Sprintf("target%d/roofline=%v/reliability=%v", target, roofline, spec != nil)
				t.Run(name, func(t *testing.T) {
					sc := cs1Scenario()
					sc.Training.Roofline = roofline
					sc.Training.Reliability = spec
					sp, err := NewSpace(sc, Options{
						Batches:          []int{1024, 4096, 8192},
						Enumerate:        parallel.EnumerateOptions{PowerOfTwo: true, MaxCP: 2, MaxVPP: 2},
						MicrobatchTarget: target,
						Concurrency:      1,
						KeepInvalid:      true,
					})
					if err != nil {
						t.Fatal(err)
					}
					k := &keySink{t: t, s: sp, prevMi: -1}
					if _, err := sp.run(context.Background(), 0, sp.Cells(), func() sink { return k }); err != nil {
						t.Fatal(err)
					}
					switch {
					case k.priced == 0:
						t.Fatal("no cell priced")
					case target == 0 && k.repeats != 0:
						t.Errorf("%d cells repeat their row's microbatch size, want none", k.repeats)
					case target == 128 && k.repeats == 0:
						t.Error("no priced cell repeats its row's microbatch size")
					}
				})
			}
		}
	}
}

// allCells gives a test sink the limit under which the walk hands it
// every cell: none is cut.
type allCells struct{}

func (allCells) limit() *float64 {
	inf := math.Inf(1)
	return &inf
}

// discardSink drops every cell.
type discardSink struct{ allCells }

func (discardSink) take(int64, *Point, Rank) {}

// TestPooledRowAcrossSessions leaves a worker in the pool whose row holds
// mapping 0 of one space, communication memo filled, and sweeps a second
// space over the same mapping list whose session prices the inter-node
// link four times slower. A worker that kept the row, or its memo, would
// price the second space's mapping-0 cells with the first session's
// constants; every point must equal the second session's EvaluatePoint.
func TestPooledRowAcrossSessions(t *testing.T) {
	a := cs1Scenario()
	b := cs1Scenario()
	slow := *b.System
	slow.Inter.Bandwidth /= 4
	b.System = &slow
	opt := Options{
		Batches:          []int{4096, 8192},
		Enumerate:        parallel.EnumerateOptions{PowerOfTwo: true},
		MicrobatchTarget: 128,
		Concurrency:      1,
	}
	spA, err := NewSpace(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	spB, err := NewSpace(b, opt)
	if err != nil {
		t.Fatal(err)
	}
	nb := int64(len(opt.Batches))
	for trial := 0; trial < 4; trial++ {
		w := getWorker()
		spA.evalChunk(w, 0, nb, discardSink{})
		if w.mi != 0 {
			t.Fatalf("worker row holds mapping %d after pricing mapping 0", w.mi)
		}
		workerPool.Put(w)
		pts, err := spB.Sweep(context.Background(), 0, spB.Cells())
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) == 0 || pts[0].Mapping != spB.Mappings()[0] {
			t.Fatalf("sweep lost mapping 0's cells")
		}
		for _, p := range pts {
			var bd model.Breakdown
			if err := spB.Session().EvaluatePoint(p.Mapping, p.Batch, p.ChosenMicrobatches(), &bd); err != nil || !sameBits(*p.Breakdown, bd) {
				t.Fatalf("trial %d %v: breakdown differs from EvaluatePoint (%v)", trial, p, err)
			}
		}
	}
}
