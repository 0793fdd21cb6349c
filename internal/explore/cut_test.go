package explore

import (
	"context"
	"testing"

	"amped/internal/hardware"
	"amped/internal/parallel"
	"amped/internal/transformer"
)

// TestSpaceTopCuts runs Space.Top the way the shard handler and sweep jobs
// do, n = 20 over 4096-cell chunks, on the space of the root package's
// BenchmarkSpaceTop (Megatron 145B on the Case Study I machine,
// power-of-two mappings with CP and VPP up to 2, 19 batch sizes), and
// checks that the compute floor cuts cells there while the merged chunk
// tops and their completed counts stay exactly TopByTime over Sweep.
func TestSpaceTopCuts(t *testing.T) {
	m := transformer.Megatron145B()
	sys := hardware.CaseStudy1System()
	sc := Scenario{Model: &m, System: &sys}
	opt := Options{Enumerate: parallel.EnumerateOptions{PowerOfTwo: true, MaxCP: 2, MaxVPP: 2}, MicrobatchTarget: 2}
	for k := 1; k <= 19; k++ {
		opt.Batches = append(opt.Batches, 1024*k)
	}
	ref, err := NewSpace(sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Sweep(context.Background(), 0, ref.Cells())
	if err != nil {
		t.Fatal(err)
	}
	var prog Progress
	opt.Progress = &prog
	sp, err := NewSpace(sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	const chunk, n = 4096, 20
	var merged []Point
	var completed int
	for lo := int64(0); lo < sp.Cells(); lo += chunk {
		top, c, err := sp.Top(context.Background(), lo, min(lo+chunk, sp.Cells()), n)
		if err != nil {
			t.Fatal(err)
		}
		merged = append(merged, top...)
		completed += c
	}
	if completed != len(want) {
		t.Fatalf("completed %d, want %d", completed, len(want))
	}
	if d := diffPoints(TopByTime(merged, n), TopByTime(want, n)); d != "" {
		t.Fatal(d)
	}
	cut := prog.Cut.Load()
	if cut == 0 {
		t.Fatal("Progress.Cut = 0: the compute floor cut no cell")
	}
	t.Logf("%d cells, %d completed, %d cut (%.1f%%)", sp.Cells(), completed, cut, 100*float64(cut)/float64(sp.Cells()))
}

// zeroEff is a constant efficiency that drops to 0 above a microbatch
// size: those cells' compute, and so their floor and their time, is +Inf.
type zeroEff struct{ above float64 }

func (e zeroEff) Eff(ub float64) float64 {
	if ub > e.above {
		return 0
	}
	return 0.5
}

// TestSpaceTopCutsNonFinite pins the one place Top's counts depart from
// Sweep's: a cell whose pricing would fail with a non-finite time but
// whose floor is above the worker's n-th best key is cut, and so counts as
// completed, not failed. Here those are the cells whose efficiency is 0,
// with an infinite compute floor. The ranking still equals TopByTime over
// Sweep, every cell is either completed or failed, and completed exceeds
// Sweep's point count by the failures the cut absorbed.
func TestSpaceTopCutsNonFinite(t *testing.T) {
	sc := tinyScenario(t)
	sc.Eff = zeroEff{above: 64}
	opt := Options{
		Batches:     []int{16, 256},
		Enumerate:   parallel.EnumerateOptions{PowerOfTwo: true},
		Concurrency: 1,
	}
	var sprog, tprog Progress
	opt.Progress = &sprog
	ref, err := NewSpace(sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Sweep(context.Background(), 0, ref.Cells())
	if err != nil {
		t.Fatal(err)
	}
	opt.Progress = &tprog
	sp, err := NewSpace(sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1
	top, completed, err := sp.Top(context.Background(), 0, sp.Cells(), n)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffPoints(top, TopByTime(want, n)); d != "" {
		t.Fatal(d)
	}
	cells := sp.Cells()
	sweepFailed, topFailed, cut := sprog.Failed.Load(), tprog.Failed.Load(), tprog.Cut.Load()
	switch {
	case int64(len(want))+sweepFailed != cells:
		t.Fatalf("sweep: %d points + %d failed != %d cells", len(want), sweepFailed, cells)
	case int64(completed)+topFailed != cells:
		t.Fatalf("top: %d completed + %d failed != %d cells", completed, topFailed, cells)
	case cut == 0 || topFailed >= sweepFailed:
		t.Fatalf("top: %d cut, %d failed (sweep %d): want non-finite cells cut instead of failed", cut, topFailed, sweepFailed)
	case int64(completed-len(want)) != sweepFailed-topFailed:
		t.Fatalf("top completed %d, sweep %d: want the difference to be the %d failures the cut absorbed",
			completed, len(want), sweepFailed-topFailed)
	}
}
