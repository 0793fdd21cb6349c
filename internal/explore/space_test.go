package explore

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"amped/internal/faults"
	"amped/internal/memkit"
	"amped/internal/model"
	"amped/internal/parallel"
	"amped/internal/precision"
	"amped/internal/transformer"
)

// ubPanicEff panics on one microbatch size and is otherwise constant, so
// which cells panic depends on the cell alone, not on evaluation order.
type ubPanicEff struct{ ub float64 }

func (e ubPanicEff) Eff(ub float64) float64 {
	if ub == e.ub {
		panic("ubPanicEff: deliberate test panic")
	}
	return 0.5
}

// topCases are the spaces the executor's two sinks must agree on: failed
// and pipeline-unfillable cells kept or dropped, duplicated batch sizes
// (equal identities), a memory model (the !Fits bucket) and one under
// which nothing fits, a panicking efficiency model (the per-chunk recover
// and the scalar retry of the poisoned cells), a single worker whose row
// outlives its chunks, exact key ties across batch positions (the cut must
// not drop a cell whose key equals the n-th best) and reliability (the
// floor carries the failure overhead).
func topCases(t *testing.T) []struct {
	name string
	sc   Scenario
	opt  Options
} {
	tiny := tinyScenario(t)
	dup := Options{
		Batches:          []int{4, 64, 64},
		Enumerate:        parallel.EnumerateOptions{PowerOfTwo: true},
		MicrobatchTarget: 2,
		KeepInvalid:      true,
	}
	drop := dup
	drop.KeepInvalid = false
	mem := cs1Scenario()
	mem.Memory = &memkit.Config{
		Operands:      precision.Mixed16(),
		Optimizer:     memkit.Adam,
		Checkpointing: true,
		Schedule:      memkit.OneFOneB,
	}
	mem.MemoryReserve = 0.1
	memOpt := Options{
		Batches:          []int{8192},
		Enumerate:        parallel.EnumerateOptions{PowerOfTwo: true},
		MicrobatchTarget: 2,
		KeepInvalid:      true,
	}
	noneFits := mem
	noneFits.MemoryReserve = 0.999
	panicky := tinyScenario(t)
	panicky.Eff = ubPanicEff{ub: 1}
	serial := cs1Scenario()
	serialOpt := Options{
		Batches:          []int{4096, 8192},
		Enumerate:        parallel.EnumerateOptions{PowerOfTwo: true},
		MicrobatchTarget: 128,
		Concurrency:      1,
	}
	ties := Options{
		Batches:          []int{8192, 4096, 8192, 8192},
		Enumerate:        parallel.EnumerateOptions{PowerOfTwo: true},
		MicrobatchTarget: 128,
	}
	rel := cs1Scenario()
	rel.Training.Reliability = &faults.Spec{
		AccelMTBF: 5e6, CheckpointBW: 2e9, RestartTime: 300, OptimizerBytesPerParam: 12,
	}
	relOpt := Options{
		Batches:          []int{2048, 4096, 8192},
		Enumerate:        parallel.EnumerateOptions{PowerOfTwo: true, MaxCP: 2, MaxVPP: 2},
		MicrobatchTarget: 2,
	}
	return []struct {
		name string
		sc   Scenario
		opt  Options
	}{
		{"keep-invalid", tiny, dup},
		{"drop-invalid", tiny, drop},
		{"memory", mem, memOpt},
		{"none-fits", noneFits, memOpt},
		{"panic", panicky, dup},
		{"serial", serial, serialOpt},
		{"ties", cs1Scenario(), ties},
		{"reliability", rel, relOpt},
	}
}

// TestSpaceTopMatchesTopByTime is the top-N sink's equivalence property:
// for random [lo, hi) ranges, each split into random chunks whose tops are
// merged the way a shard coordinator merges them, Space.Top returns exactly
// TopByTime(SweepContext(...), n) — every field, Breakdown and Footprint by
// value, errors by text — and completed counts exactly the points the sweep
// returns.
func TestSpaceTopMatchesTopByTime(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, tc := range topCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			sp, err := NewSpace(tc.sc, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			total := sp.Cells()
			checkSpaceFixture(t, tc.name, sp)
			for trial := 0; trial < 6; trial++ {
				lo, hi := int64(0), total
				if trial > 0 {
					lo = rng.Int63n(total)
					hi = lo + 1 + rng.Int63n(total-lo)
				}
				opt := tc.opt
				opt.CursorLo, opt.CursorHi = lo, hi
				want, err := SweepContext(context.Background(), tc.sc, opt)
				if err != nil {
					t.Fatal(err)
				}
				// Chunk cut points inside [lo, hi).
				cuts := []int64{lo}
				for c := lo + 1; c < hi; c++ {
					if rng.Intn(int(hi-lo)) < 3 {
						cuts = append(cuts, c)
					}
				}
				cuts = append(cuts, hi)
				for _, n := range []int{0, 1, 20, len(want), len(want) + 5} {
					got, completed, err := sp.Top(context.Background(), lo, hi, n)
					if err != nil {
						t.Fatal(err)
					}
					ref := TopByTime(want, n)
					if completed != len(want) {
						t.Fatalf("[%d,%d) n=%d: completed %d, want %d", lo, hi, n, completed, len(want))
					}
					if d := diffPoints(got, ref); d != "" {
						t.Fatalf("[%d,%d) n=%d: %s", lo, hi, n, d)
					}

					var merged []Point
					completed = 0
					for i := 1; i < len(cuts); i++ {
						part, c, err := sp.Top(context.Background(), cuts[i-1], cuts[i], n)
						if err != nil {
							t.Fatal(err)
						}
						merged = append(merged, part...)
						completed += c
					}
					if completed != len(want) {
						t.Fatalf("[%d,%d) n=%d, %d chunks: completed %d, want %d",
							lo, hi, n, len(cuts)-1, completed, len(want))
					}
					if d := diffPoints(TopByTime(merged, n), ref); d != "" {
						t.Fatalf("[%d,%d) n=%d, %d chunks merged: %s", lo, hi, n, len(cuts)-1, d)
					}
				}
			}
		})
	}
}

// checkSpaceFixture fails when a case's space lost the cells it exists to
// cover.
func checkSpaceFixture(t *testing.T, name string, sp *Space) {
	t.Helper()
	pts, err := sp.Sweep(context.Background(), 0, sp.Cells())
	if err != nil {
		t.Fatal(err)
	}
	var failed, unfit, panicked, unfillable int
	for _, p := range pts {
		switch {
		case p.Err != nil && strings.Contains(p.Err.Error(), "deliberate test panic"):
			panicked++
		case p.Err != nil && strings.Contains(p.Err.Error(), "infeasible"):
			unfillable++
		case p.Err != nil:
			failed++
		case !p.Fits:
			unfit++
		}
	}
	ok := len(pts) - failed - unfit - panicked - unfillable
	var lost bool
	switch name {
	case "keep-invalid":
		lost = unfillable == 0 || ok == 0
	case "memory":
		lost = unfit == 0 || ok == 0
	case "none-fits":
		lost = unfit == 0 || ok != 0
	case "panic":
		lost = panicked == 0 || ok == 0
	case "serial":
		lost = len(pts) <= 2*minChunk
	}
	if lost {
		t.Fatalf("fixture lost its point: %d points, ok %d, failed %d, unfit %d, panicked %d, unfillable %d",
			len(pts), ok, failed, unfit, panicked, unfillable)
	}
}

// TestSpaceTopCancelled checks the partial contract under cancellation: a
// context cancelled before the call, and one cancelled mid-range by the
// efficiency model on a single worker (so the completed chunks are
// deterministic), leave Top equal to TopByTime over the all-points sink's
// partial points, with the same completed count and error. Small batches
// scatter pipeline-unfillable cells through the unclaimed tail, which
// count as finished.
func TestSpaceTopCancelled(t *testing.T) {
	for _, mid := range []bool{false, true} {
		sc := cs1Scenario()
		opt := Options{
			Batches:          []int{64, 4096, 8192},
			Enumerate:        parallel.EnumerateOptions{PowerOfTwo: true},
			MicrobatchTarget: 128,
			KeepInvalid:      true,
			Concurrency:      1,
		}
		run := func(f func(ctx context.Context, sp *Space) ([]Point, int, error)) ([]Point, int, error) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if mid {
				// The efficiency model is called once per degree group
				// and batch position (110 times over this space): the 40th
				// call lands in the third chunk of 128 cells.
				sc.Eff = cancellingEff{cancel: cancel, after: 40, n: new(int64)}
			} else {
				cancel()
			}
			sp, err := NewSpace(sc, opt)
			if err != nil {
				t.Fatal(err)
			}
			return f(ctx, sp)
		}
		var total, evaluated int
		want, _, werr := run(func(ctx context.Context, sp *Space) ([]Point, int, error) {
			total = int(sp.Cells())
			pts, err := sp.Sweep(ctx, 0, sp.Cells())
			return pts, len(pts), err
		})
		for _, p := range want {
			if p.Breakdown != nil {
				evaluated++
			}
		}
		if werr != context.Canceled || len(want) == 0 || len(want) >= total || (evaluated > 0) != mid {
			t.Fatalf("mid=%v: sweep returned %d of %d points (%d evaluated), %v; want a partial set and context.Canceled",
				mid, len(want), total, evaluated, werr)
		}
		for _, n := range []int{0, 1, 20, len(want), len(want) + 5} {
			got, completed, err := run(func(ctx context.Context, sp *Space) ([]Point, int, error) {
				return sp.Top(ctx, 0, sp.Cells(), n)
			})
			if fmt.Sprint(err) != fmt.Sprint(werr) || completed != len(want) {
				t.Fatalf("mid=%v n=%d: completed %d, %v; want %d, %v", mid, n, completed, err, len(want), werr)
			}
			if d := diffPoints(got, TopByTime(want, n)); d != "" {
				t.Fatalf("mid=%v n=%d: %s", mid, n, d)
			}
		}
	}
}

// diffPoints describes the first difference between two rankings — every
// field, Breakdown and Footprint compared by value, Err by text — or
// returns "" when they are identical.
func diffPoints(got, want []Point) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d points, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		switch {
		case g.Mapping != w.Mapping || g.Batch != w.Batch || g.Microbatches != w.Microbatches ||
			g.chosenNub != w.chosenNub || g.Fits != w.Fits:
			return fmt.Sprintf("point %d is %v (fits %v), want %v (fits %v)", i, g, g.Fits, w, w.Fits)
		case fmt.Sprint(g.Err) != fmt.Sprint(w.Err):
			return fmt.Sprintf("point %d error %v, want %v", i, g.Err, w.Err)
		case (g.Breakdown == nil) != (w.Breakdown == nil) || g.Breakdown != nil && *g.Breakdown != *w.Breakdown:
			return fmt.Sprintf("point %d (%v) breakdown differs", i, g)
		case (g.Footprint == nil) != (w.Footprint == nil) || g.Footprint != nil && *g.Footprint != *w.Footprint:
			return fmt.Sprintf("point %d (%v) footprint differs", i, g)
		}
	}
	return ""
}

// TestSpaceConcurrentCalls runs Top over overlapping ranges of one fresh
// space from several goroutines — each call's workers choose their own
// schedules from the shared, unwritten space — and checks every result
// against a sequential call on a second space. Run it under -race.
func TestSpaceConcurrentCalls(t *testing.T) {
	sc, opt := cs1Scenario(), Options{
		Batches:          []int{64, 4096, 8192},
		Enumerate:        parallel.EnumerateOptions{PowerOfTwo: true},
		MicrobatchTarget: 128,
		KeepInvalid:      true,
	}
	shared, err := NewSpace(sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewSpace(sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	total := shared.Cells()
	ranges := [][2]int64{{0, total / 2}, {total / 3, total}, {total / 4, 3 * total / 4}, {0, total}}
	want := make([][]Point, len(ranges))
	wantN := make([]int, len(ranges))
	for i, r := range ranges {
		if want[i], wantN[i], err = ref.Top(context.Background(), r[0], r[1], 10); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan string, len(ranges))
	for i, r := range ranges {
		go func() {
			got, n, err := shared.Top(context.Background(), r[0], r[1], 10)
			switch {
			case err != nil:
				errs <- fmt.Sprintf("%v: %v", r, err)
			case n != wantN[i]:
				errs <- fmt.Sprintf("%v: completed %d, want %d", r, n, wantN[i])
			default:
				errs <- diffPoints(got, want[i])
			}
		}()
	}
	for range ranges {
		if d := <-errs; d != "" {
			t.Error(d)
		}
	}
}

// TestSpaceTopMatchesEvaluatePoint is the row path's bit-identity property:
// every Space.Top survivor — over the whole space and over random
// sub-ranges — carries the Breakdown Session.EvaluatePoint writes for the
// same cell, bit for bit, and a survivor that failed pricing carries
// EvaluatePoint's error. The spaces cover dense and MoE models with expert
// parallelism, CP/VPP/SP mappings, roofline pricing on and off,
// reliability, duplicated batch sizes and a memory model.
func TestSpaceTopMatchesEvaluatePoint(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	base := Options{
		Batches:          []int{1024, 4096, 8192},
		Enumerate:        parallel.EnumerateOptions{PowerOfTwo: true},
		MicrobatchTarget: 128,
		KeepInvalid:      true,
	}
	glam := transformer.GLaM()
	moe := cs1Scenario()
	moe.Model = &glam
	moeOpt := base
	moeOpt.Enumerate.ExpertParallel = true
	cpOpt := base
	cpOpt.Enumerate = parallel.EnumerateOptions{PowerOfTwo: true, MaxCP: 2, MaxVPP: 2, SequenceParallel: true}
	roof := cs1Scenario()
	roof.Training.Roofline = true
	rel := cs1Scenario()
	rel.Training.Reliability = &faults.Spec{
		AccelMTBF: 5e6, CheckpointBW: 2e9, RestartTime: 300, OptimizerBytesPerParam: 12,
	}
	dup := base
	dup.Batches = []int{4096, 64, 4096, 8192, 64}
	mem := topCases(t)[2].sc
	for _, tc := range []struct {
		name string
		sc   Scenario
		opt  Options
	}{
		{"dense", cs1Scenario(), base},
		{"moe-ep", moe, moeOpt},
		{"cp-vpp-sp", cs1Scenario(), cpOpt},
		{"cp-vpp-roofline", roof, cpOpt},
		{"reliability", rel, base},
		{"duplicated-batches", cs1Scenario(), dup},
		{"memory", mem, base},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp, err := NewSpace(tc.sc, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			total := sp.Cells()
			var checked int
			for trial := 0; trial < 8; trial++ {
				lo, hi := int64(0), total
				if trial > 0 {
					lo = rng.Int63n(total)
					hi = lo + 1 + rng.Int63n(total-lo)
				}
				top, _, err := sp.Top(context.Background(), lo, hi, 64)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range top {
					var bd model.Breakdown
					werr := sp.Session().EvaluatePoint(p.Mapping, p.Batch, p.ChosenMicrobatches(), &bd)
					switch {
					case p.Breakdown != nil:
						if werr != nil || !sameBits(*p.Breakdown, bd) {
							t.Fatalf("[%d,%d) %v: breakdown differs from EvaluatePoint (%v)", lo, hi, p, werr)
						}
						checked++
					case !strings.Contains(p.Err.Error(), "infeasible") && fmt.Sprint(werr) != p.Err.Error():
						t.Fatalf("[%d,%d) %v: error %q, EvaluatePoint says %v", lo, hi, p, p.Err, werr)
					}
				}
			}
			if checked == 0 {
				t.Fatal("no survivor priced")
			}
		})
	}
}

// sameBits reports whether two values are identical field by field, floats
// compared by their bits.
func sameBits[T any](a, b T) bool { return bitsEqual(reflect.ValueOf(a), reflect.ValueOf(b)) }

func bitsEqual(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitsEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}
