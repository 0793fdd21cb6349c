package explore

import (
	"testing"

	"amped/internal/hardware"
	"amped/internal/memkit"
	"amped/internal/model"
	"amped/internal/parallel"
	"amped/internal/precision"
	"amped/internal/transformer"
)

func cs1Scenario() Scenario {
	m := transformer.Megatron145B()
	sys := hardware.CaseStudy1System()
	return Scenario{
		Name:     "case-study-1",
		Model:    &m,
		System:   &sys,
		Training: model.Training{NumBatches: 100},
	}
}

func TestChooseMicrobatches(t *testing.T) {
	cases := []struct {
		per, pp, target, want int
	}{
		{128, 1, 128, 1}, // one microbatch of 128
		{128, 1, 32, 4},  // 4 microbatches of 32
		{128, 8, 32, 8},  // pipeline depth wins over target
		{128, 8, 128, 8}, // still at least pp
		{8192, 64, 128, 64},
		{8192, 2, 32, 256},
		{100, 8, 32, 10}, // divisors of 100 >= 8: want near 3 -> 10
		{4, 16, 32, 4},   // pp exceeds per-replica batch: infeasible fallback
		{1, 1, 32, 1},    // perReplica == 1, depth-1 pipeline: feasible
		{1, 2, 8, 1},     // perReplica == 1, deeper pipeline: infeasible fallback
		{0, 4, 8, 1},
		{128, 1, 0, 128}, // target 0 -> microbatch 1
	}
	for _, c := range cases {
		if got := ChooseMicrobatches(c.per, c.pp, c.target); got != c.want {
			t.Errorf("ChooseMicrobatches(%d, %d, %d) = %d, want %d",
				c.per, c.pp, c.target, got, c.want)
		}
	}
	// The result always divides the per-replica batch (or equals it).
	for per := 1; per <= 64; per++ {
		for pp := 1; pp <= 8; pp++ {
			got := ChooseMicrobatches(per, pp, 16)
			if per%got != 0 {
				t.Fatalf("ChooseMicrobatches(%d,%d,16)=%d does not divide", per, pp, got)
			}
		}
	}
}

func TestSweepEnumerates(t *testing.T) {
	sc := cs1Scenario()
	pts, err := Sweep(sc, Options{
		Batches:          []int{8192},
		Enumerate:        parallel.EnumerateOptions{PowerOfTwo: true},
		MicrobatchTarget: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no points survived")
	}
	for _, p := range pts {
		if p.Err != nil {
			t.Fatalf("point %v failed: %v", p, p.Err)
		}
		if p.Breakdown == nil {
			t.Fatalf("point %v has no breakdown", p)
		}
		if p.Mapping.TP() > sc.Model.Heads || p.Mapping.PP() > sc.Model.Layers {
			t.Fatalf("enumeration ignored model caps: %v", p)
		}
	}
}

func TestSweepDeterministicOrder(t *testing.T) {
	sc := cs1Scenario()
	opt := Options{
		Batches:          []int{4096, 8192},
		Enumerate:        parallel.EnumerateOptions{PowerOfTwo: true},
		MicrobatchTarget: 128,
		Concurrency:      4,
	}
	a, err := Sweep(sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sweep(sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("order differs at %d: %v vs %v", i, a[i], b[i])
		}
		if a[i].Breakdown.TotalTime() != b[i].Breakdown.TotalTime() {
			t.Fatalf("times differ at %d", i)
		}
	}
}

func TestBestPrefersTPIntraDPInter(t *testing.T) {
	// Case Study I conclusion ⑤: TP intra-node with DP/PP inter-node wins.
	sc := cs1Scenario()
	pts, err := Sweep(sc, Options{
		Batches:          []int{16384},
		Enumerate:        parallel.EnumerateOptions{PowerOfTwo: true},
		MicrobatchTarget: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	best := Best(pts)
	if best == nil {
		t.Fatal("no best point")
	}
	if best.Mapping.TPIntra < 2 {
		t.Errorf("best mapping %v does not use intra-node TP", best.Mapping)
	}
	if best.Mapping.TPInter != 1 {
		t.Errorf("best mapping %v uses inter-node TP", best.Mapping)
	}
}

func TestExplicitMappingsAndInvalid(t *testing.T) {
	sc := cs1Scenario()
	maps := []parallel.Mapping{
		{TPIntra: 8, DPInter: 128},
		{TPIntra: 8, TPInter: 128}, // TP 1024 > 96 heads: invalid
	}
	pts, err := Sweep(sc, Options{Mappings: maps, Batches: []int{8192}, MicrobatchTarget: 128})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("invalid point not dropped: %d points", len(pts))
	}
	kept, err := Sweep(sc, Options{
		Mappings: maps, Batches: []int{8192}, MicrobatchTarget: 128, KeepInvalid: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 2 {
		t.Fatalf("KeepInvalid dropped points: %d", len(kept))
	}
	if kept[1].Err == nil {
		t.Error("invalid point has no error")
	}
}

func TestSortByTimeOrdering(t *testing.T) {
	sc := cs1Scenario()
	pts, err := Sweep(sc, Options{
		Mappings: []parallel.Mapping{
			{TPIntra: 8, DPInter: 128},
			{TPIntra: 8, TPInter: 2, DPInter: 64},
			{TPIntra: 8, PPInter: 2, DPInter: 64},
			{TPIntra: 8, TPInter: 128}, // invalid
		},
		Batches: []int{16384}, MicrobatchTarget: 128, KeepInvalid: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	SortByTime(pts)
	for i := 1; i < len(pts); i++ {
		a, b := pts[i-1], pts[i]
		if a.Err == nil && b.Err == nil {
			if a.Breakdown.TotalTime() > b.Breakdown.TotalTime() {
				t.Fatalf("not sorted at %d", i)
			}
		}
	}
	if pts[len(pts)-1].Err == nil {
		t.Error("failed point not sorted last")
	}
}

func TestMemoryFiltering(t *testing.T) {
	sc := cs1Scenario()
	// Realistic large-model recipe: activation checkpointing, 1F1B, tiny
	// microbatches — the setup under which TP8·PP8 sharding fits an 80 GB
	// A100 while a full DP replica never can.
	sc.Memory = &memkit.Config{
		Operands:      precision.Mixed16(),
		Optimizer:     memkit.Adam,
		Checkpointing: true,
		Schedule:      memkit.OneFOneB,
	}
	sc.MemoryReserve = 0.1
	pts, err := Sweep(sc, Options{
		Mappings: []parallel.Mapping{
			{TPIntra: 8, PPInter: 8, DPInter: 16}, // 145B/64-way sharding: fits
			{DPIntra: 8, DPInter: 128},            // full replica per GPU: cannot fit
		},
		Batches: []int{8192}, MicrobatchTarget: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	byFit := map[bool]int{}
	for _, p := range pts {
		if p.Footprint == nil {
			t.Fatalf("point %v missing footprint", p)
		}
		byFit[p.Fits]++
	}
	if byFit[true] != 1 || byFit[false] != 1 {
		t.Errorf("fit split = %v, want one each", byFit)
	}
	best := Best(pts)
	if best == nil || !best.Fits {
		t.Error("Best returned an infeasible point")
	}
}

func TestSweepErrors(t *testing.T) {
	sc := cs1Scenario()
	if _, err := Sweep(Scenario{}, Options{Batches: []int{8}}); err == nil {
		t.Error("empty scenario accepted")
	}
	if _, err := Sweep(sc, Options{}); err == nil {
		t.Error("no batches accepted")
	}
}

func TestFilterBatch(t *testing.T) {
	pts := []Point{{Batch: 4096}, {Batch: 8192}, {Batch: 4096}}
	got := FilterBatch(pts, 4096)
	if len(got) != 2 {
		t.Errorf("FilterBatch = %d points", len(got))
	}
	if FilterBatch(pts, 1) != nil {
		t.Error("missing batch returned points")
	}
}

func TestBestEmpty(t *testing.T) {
	if Best(nil) != nil {
		t.Error("Best(nil) != nil")
	}
	if Best([]Point{{Err: nil, Fits: false}}) != nil {
		t.Error("Best returned unfit point")
	}
}

func TestParetoTimeEnergy(t *testing.T) {
	sc := cs1Scenario()
	sc.Training.NumBatches = 1000
	pts, err := Sweep(sc, Options{
		Mappings: []parallel.Mapping{
			{TPIntra: 8, DPInter: 128},            // fast, no bubbles
			{TPIntra: 8, PPInter: 64, DPInter: 2}, // slower, idles in bubbles
			{TPIntra: 8, TPInter: 2, DPInter: 64}, // slower, no bubbles
		},
		Batches: []int{16384}, MicrobatchTarget: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	front, err := ParetoTimeEnergy(pts, sc.System)
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 {
		t.Fatal("empty Pareto front")
	}
	// Fastest-first and strictly improving energy along the front.
	for i := 1; i < len(front); i++ {
		if front[i].Breakdown.TotalTime() <= front[i-1].Breakdown.TotalTime() {
			t.Errorf("front not time-sorted at %d", i)
		}
		if front[i].Energy.Total() >= front[i-1].Energy.Total() {
			t.Errorf("front point %d not energy-improving", i)
		}
	}
	// The fastest feasible point always survives.
	if best := Best(pts); best != nil &&
		front[0].Breakdown.TotalTime() != best.Breakdown.TotalTime() {
		t.Error("fastest point missing from the front")
	}
	// Degenerate inputs.
	empty, err := ParetoTimeEnergy(nil, sc.System)
	if err != nil || empty != nil {
		t.Errorf("nil points front = %v, %v", empty, err)
	}
}

// TestBestBreaksTiesByIdentity: two points of exactly equal time in reverse
// identity order. Best must pick the smaller identity, the front of
// SortByTime, not the first one it meets.
func TestBestBreaksTiesByIdentity(t *testing.T) {
	bd := &model.Breakdown{ComputeForward: 1, NumBatches: 1}
	mp := parallel.Mapping{TPIntra: 8, DPInter: 4}
	pts := []Point{
		{Mapping: mp, Batch: 64, Microbatches: 2, Breakdown: bd, Fits: true},
		{Mapping: mp, Batch: 64, Microbatches: 1, Breakdown: bd, Fits: true},
	}
	if got := Best(pts); got != &pts[1] {
		t.Fatalf("Best = %v, want %v", got, &pts[1])
	}
	front := TopByTime(pts, 1)[0]
	if front.String() != pts[1].String() {
		t.Fatalf("TopByTime front %v disagrees with Best %v", front, pts[1])
	}
}

// TestMemoryFitsWorstStage: a pipelined cell whose Estimate fits but whose
// last stage, which also holds the output gather, does not must read
// Fits == false, and report the last stage's footprint.
func TestMemoryFitsWorstStage(t *testing.T) {
	sc := cs1Scenario()
	cfg := memkit.Config{
		Operands:      precision.Mixed16(),
		Optimizer:     memkit.Adam,
		Checkpointing: true,
		Schedule:      memkit.OneFOneB,
	}
	mp := parallel.Mapping{TPIntra: 8, PPInter: 8, DPInter: 16}
	opt := Options{Mappings: []parallel.Mapping{mp}, Batches: []int{8192}, MicrobatchTarget: 2}
	pts, err := Sweep(sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	b := parallel.Batch{Global: 8192, Microbatches: pts[0].Microbatches}
	est, err := memkit.Estimate(sc.Model, mp, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	worst, err := memkit.WorstStage(sc.Model, mp, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if worst.Total() <= est.Total() {
		t.Fatalf("last stage %v adds no gather over %v", worst.Total(), est.Total())
	}
	sys := *sc.System
	sys.Accel.Memory = (est.Total() + worst.Total()) / 2 * 10 / 9
	sc.System = &sys
	sc.Memory = &cfg
	sc.MemoryReserve = 0.1
	if !memkit.Fits(est, sys.Accel, sc.MemoryReserve) {
		t.Fatal("budget does not admit the Estimate")
	}
	pts, err = Sweep(sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Fits {
		t.Errorf("%v fits although its last stage needs %v of %v", pts[0], worst.Total(), sys.Accel.Memory)
	}
	if pts[0].Footprint == nil || *pts[0].Footprint != worst {
		t.Errorf("footprint %v, want the last stage's %v", pts[0].Footprint, worst)
	}
}

// TestMaxVPPAboveLayersRefused checks that a virtual-pipeline cap above the
// model's layer count is refused before enumeration by every entry point,
// and that a cap equal to the layer count enumerates exactly what
// parallel.Enumerate lists.
func TestMaxVPPAboveLayersRefused(t *testing.T) {
	sc := cs1Scenario()
	layers := sc.Model.Layers
	huge := Options{Batches: []int{8192}, Enumerate: parallel.EnumerateOptions{PowerOfTwo: true, MaxVPP: 100000000}}
	if _, err := NewSpace(sc, huge); err == nil {
		t.Error("NewSpace accepted MaxVPP 1e8")
	}
	if _, err := Cells(sc, huge); err == nil {
		t.Error("Cells accepted MaxVPP 1e8")
	}
	over := parallel.EnumerateOptions{PowerOfTwo: true, MaxVPP: layers + 1}
	if err := CheckEnumerate(sc.Model, over); err == nil {
		t.Errorf("CheckEnumerate accepted MaxVPP %d on %d layers", layers+1, layers)
	}
	if got := MappingList(sc.Model, sc.System, nil, over); got != nil {
		t.Errorf("MappingList enumerated %d mappings past the layer count", len(got))
	}

	at := parallel.EnumerateOptions{PowerOfTwo: true, MaxVPP: layers}
	n, err := Cells(sc, Options{Batches: []int{8192}, Enumerate: at})
	if err != nil {
		t.Fatal(err)
	}
	want := parallel.Enumerate(sc.System, parallel.EnumerateOptions{
		PowerOfTwo: true, MaxVPP: layers, MaxTP: sc.Model.Heads, MaxPP: layers})
	if n != int64(len(want)) {
		t.Fatalf("MaxVPP = layers: %d cells, want %d", n, len(want))
	}
}
