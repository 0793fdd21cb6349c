package model

import (
	"errors"
	"math"
	"testing"

	"amped/internal/faults"
	"amped/internal/hardware"
	"amped/internal/parallel"
	"amped/internal/transformer"
)

// TestFitErrorMessages pins the text of every checkFit failure: the message
// is formatted only when Error is called and must read exactly as it did
// when checkFit formatted it up front.
func TestFitErrorMessages(t *testing.T) {
	m := &transformer.Model{Heads: 16, Layers: 24, SeqLen: 1024}
	for _, tc := range []struct {
		tp, pp, cp, vpp int
		want            string
	}{
		{32, 1, 1, 1, "model: TP degree 32 exceeds 16 attention heads"},
		{1, 48, 1, 1, "model: PP degree 48 exceeds 24 layers"},
		{1, 1, 2048, 1, "model: CP degree 2048 exceeds sequence length 1024"},
		{1, 1, 1, 4, "model: virtual pipeline depth 4 requires PP > 1"},
		{8, 4, 2, 8, "model: PP 4 x VPP 8 exceeds 24 layers"},
	} {
		err := checkFit(m, tc.tp, tc.pp, tc.cp, tc.vpp)
		if err == nil || err.Error() != tc.want {
			t.Errorf("checkFit(tp %d, pp %d, cp %d, vpp %d) = %v, want %q", tc.tp, tc.pp, tc.cp, tc.vpp, err, tc.want)
		}
	}
	if err := checkFit(m, 16, 4, 1024, 6); err != nil {
		t.Errorf("checkFit at every bound = %v, want nil", err)
	}
}

// oneAccel compiles GPT-3 on a single accelerator: every worker-divided
// term is its whole-job total, so scaling the compute rates reaches the
// float64 range in the breakdown's components.
func oneAccel(t *testing.T) *Session {
	t.Helper()
	m := transformer.GPT3175B()
	sys := hardware.CaseStudy1System()
	sys.Nodes, sys.AccelsPerNode, sys.NICsPerNode = 1, 1, 1
	s, err := Compile(&m, &sys, Training{NumBatches: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFiniteBySum checks the kernel's one-sum finite rule at its edges. A
// cell whose twelve components are all finite but whose per-batch sum
// overflows is accepted, as the field-wise check always accepted it, and
// ranks at +Inf. A cell with an infinite or NaN component still fails
// with errNonFinite, on the point path and the row path alike.
func TestFiniteBySum(t *testing.T) {
	const batch = 8
	price := func(s *Session) (Breakdown, float64, error) {
		var bd, row Breakdown
		perr := s.EvaluatePoint(parallel.Mapping{}, batch, 0, &bd)
		var r Row
		s.PrepareRow(&r, &parallel.Mapping{})
		key, _, rerr := s.PriceRowCell(&r, new(Column), s.Aggregates([]int{batch}), 0, 0, math.Inf(1), &row)
		if perr != rerr || !sameBreakdown(bd, row) {
			t.Fatalf("row path (%v) and point path (%v) disagree", rerr, perr)
		}
		return bd, key, perr
	}

	s := oneAccel(t)
	bd, _, err := price(s)
	if err != nil {
		t.Fatal(err)
	}
	// Scale both compute rates down so the forward compute lands at 0.7e308
	// s: the backward pass (2x) stays finite, their sum does not.
	k := 0.7e308 / float64(bd.ComputeForward)
	s.peakMAC /= k
	s.cNonlin *= k
	bd, key, err := price(s)
	if err != nil {
		t.Fatalf("finite components with an overflowing sum: %v, want accepted", err)
	}
	if !bd.finite() || !math.IsInf(float64(bd.PerBatch()), 1) {
		t.Fatalf("components finite %v, per-batch %v: want finite components summing to +Inf", bd.finite(), bd.PerBatch())
	}
	if !math.IsInf(key, 1) || !math.IsInf(float64(bd.ExpectedTotalTime()), 1) {
		t.Fatalf("rank key %v, ExpectedTotalTime %v: want +Inf", key, bd.ExpectedTotalTime())
	}

	for name, peak := range map[string]float64{"inf": 0, "nan": math.NaN()} {
		s := oneAccel(t)
		s.peakMAC = peak // C_MAC = 1/(peak·eff): +Inf, or NaN
		if _, key, err := price(s); !errors.Is(err, errNonFinite) || key != 0 {
			t.Errorf("%s compute: key %v, err %v, want errNonFinite", name, key, err)
		}
	}
}

// sameBreakdown compares two breakdowns bit for bit, so NaN components of a
// non-finite result compare equal to themselves.
func sameBreakdown(a, b Breakdown) bool {
	fa, fb := a.Components(), b.Components()
	for i := range fa {
		if math.Float64bits(float64(fa[i].Time)) != math.Float64bits(float64(fb[i].Time)) {
			return false
		}
	}
	rest := func(x Breakdown) Breakdown {
		return Breakdown{Microbatch: x.Microbatch, Efficiency: x.Efficiency, Workers: x.Workers,
			NumBatches: x.NumBatches, ModelFLOPs: x.ModelFLOPs, Reliability: x.Reliability}
	}
	return rest(a) == rest(b)
}

// TestRowReusedAcrossSessions prepares one Row on a session and prices two
// cells of equal microbatch size (the second served by the communication
// memo), then prepares the same mapping on a session whose inter-node link
// is four times slower and prices the same cells: PrepareRow must empty the
// memo, so every cell prices bit-identically to its session's
// EvaluatePoint.
func TestRowReusedAcrossSessions(t *testing.T) {
	m := transformer.Megatron145B()
	fast := hardware.CaseStudy1System()
	slow := fast
	slow.Inter.Bandwidth /= 4
	var sess [2]*Session
	for i, sys := range []*hardware.System{&fast, &slow} {
		s, err := Compile(&m, sys, Training{NumBatches: 100}, nil)
		if err != nil {
			t.Fatal(err)
		}
		sess[i] = s
	}
	mp := parallel.Mapping{TPIntra: 8, TPInter: 2, PPInter: 4, DPInter: 16}
	batches, nubs := []int{4096, 8192}, []int{2, 4} // ub = 128 in both
	var r Row
	for _, s := range sess {
		s.PrepareRow(&r, &mp)
		a := s.Aggregates(batches)
		for bi, g := range batches {
			var row, point Breakdown
			key, _, err := s.PriceRowCell(&r, new(Column), a, bi, nubs[bi], math.Inf(1), &row)
			if perr := s.EvaluatePoint(mp, g, nubs[bi], &point); err != nil || perr != nil || row != point {
				t.Fatalf("B=%d: row %v (%v) != EvaluatePoint %v (%v)", g, row, err, point, perr)
			}
			if key != float64(point.ExpectedTotalTime()) {
				t.Fatalf("B=%d: rank key %v, ExpectedTotalTime %v", g, key, point.ExpectedTotalTime())
			}
		}
	}
}

// TestColumnFloorCut checks the column floor and the cut PriceRowCell
// makes against it, with reliability on (the floor carries the failure
// overhead): the floor is positive and at most the cell's rank key; a
// limit equal to the floor still prices the cell, to the same key; a limit
// just below it cuts the cell, returning the floor and cut with out
// untouched; and a cell that fails its tiling, fit or schedule check
// reports that error, uncut, even under a limit of −Inf.
func TestColumnFloorCut(t *testing.T) {
	m := transformer.Megatron145B()
	sys := hardware.CaseStudy1System()
	tr := Training{NumBatches: 100, Reliability: &faults.Spec{
		AccelMTBF: 5e6, CheckpointBW: 2e9, RestartTime: 300, OptimizerBytesPerParam: 12,
	}}
	s, err := Compile(&m, &sys, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := s.Aggregates([]int{4096, 8192})
	for _, mp := range []parallel.Mapping{
		{TPIntra: 8, DPInter: 128},
		{TPIntra: 8, PPInter: 4, DPInter: 32},
		{TPIntra: 4, TPInter: 2, PPInter: 8, DPIntra: 2, DPInter: 8, VPP: 2},
	} {
		var r Row
		s.PrepareRow(&r, &mp)
		for bi := range 2 {
			var col Column
			var bd Breakdown
			key, cut, err := s.PriceRowCell(&r, &col, a, bi, 0, math.Inf(1), &bd)
			floor := col.Floor()
			if err != nil || cut || floor <= 0 || floor > key || bd.Reliability.Overhead() <= 0 {
				t.Fatalf("%v b%d: key %v (%v), floor %v, overhead %v: want a priced cell at or above a positive floor",
					mp, bi, key, err, floor, bd.Reliability.Overhead())
			}
			if k, cut, err := s.PriceRowCell(&r, &col, a, bi, 0, floor, &bd); err != nil || cut || k != key {
				t.Fatalf("%v b%d: limit at the floor: key %v (%v), want %v priced", mp, bi, k, err, key)
			}
			untouched := Breakdown{Workers: -7}
			out := untouched
			if k, cut, err := s.PriceRowCell(&r, &col, a, bi, 0, math.Nextafter(floor, 0), &out); err != nil || !cut || k != floor || out != untouched {
				t.Fatalf("%v b%d: limit below the floor: %v, cut %v (%v), out changed %v; want the floor, cut", mp, bi, k, cut, err, out != untouched)
			}
		}
	}
	hundred := s.Aggregates([]int{100})
	for _, mp := range []parallel.Mapping{
		{TPIntra: 8, DPInter: 96},             // does not tile the machine
		{TPIntra: 8, TPInter: 16, DPInter: 8}, // TP 128 exceeds the heads
		{TPIntra: 8, PPInter: 2, DPInter: 64}, // DP 64 does not divide batch 100
	} {
		var r Row
		s.PrepareRow(&r, &mp)
		var bd Breakdown
		_, _, werr := s.PriceRowCell(&r, new(Column), hundred, 0, 0, math.Inf(1), &bd)
		_, cut, err := s.PriceRowCell(&r, new(Column), hundred, 0, 0, math.Inf(-1), &bd)
		if werr == nil || cut || err == nil || err.Error() != werr.Error() {
			t.Errorf("%v: failing cell under limit −Inf: cut %v, %v; want its own error %v", mp, cut, err, werr)
		}
	}
}

// TestColumnCuts checks the one cut rule the sweep walk and PriceRowCell
// share: a column cuts only once a cell has priced its terms, and then
// exactly at limits below its floor. An empty column, one whose schedule
// failed and one whose every cell fails the fit check never cut, even at
// −Inf.
func TestColumnCuts(t *testing.T) {
	m := transformer.Megatron145B()
	sys := hardware.CaseStudy1System()
	s, err := Compile(&m, &sys, Training{NumBatches: 100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if new(Column).Cuts(math.Inf(-1)) {
		t.Error("an empty column cuts at −Inf")
	}
	for _, c := range []struct {
		name  string
		mp    parallel.Mapping
		batch int
	}{
		{"schedule failed", parallel.Mapping{TPIntra: 8, PPInter: 2, DPInter: 64}, 100}, // DP 64 does not divide batch 100
		{"TP over the heads", parallel.Mapping{TPIntra: 8, TPInter: 16, DPInter: 8}, 4096},
		{"PP x VPP over the layers", parallel.Mapping{TPIntra: 8, PPInter: 64, DPInter: 2, VPP: 2}, 4096},
	} {
		var r Row
		s.PrepareRow(&r, &c.mp)
		var col Column
		var bd Breakdown
		if _, _, err := s.PriceRowCell(&r, &col, s.Aggregates([]int{c.batch}), 0, 0, math.Inf(1), &bd); err == nil {
			t.Fatalf("%s: %v priced, want a failing cell", c.name, c.mp)
		}
		if col.Cuts(math.Inf(-1)) {
			t.Errorf("%s: column cuts at −Inf", c.name)
		}
	}
	mp := parallel.Mapping{TPIntra: 8, PPInter: 4, DPInter: 32}
	var r Row
	s.PrepareRow(&r, &mp)
	var col Column
	var bd Breakdown
	if _, _, err := s.PriceRowCell(&r, &col, s.Aggregates([]int{8192}), 0, 0, math.Inf(1), &bd); err != nil {
		t.Fatal(err)
	}
	floor := col.Floor()
	for _, c := range []struct {
		limit float64
		want  bool
	}{{floor, false}, {math.Nextafter(floor, 0), true}, {math.Inf(-1), true}, {math.Inf(1), false}} {
		if got := col.Cuts(c.limit); got != c.want {
			t.Errorf("filled column (floor %v) cuts at %v: %v, want %v", floor, c.limit, got, c.want)
		}
	}
}
