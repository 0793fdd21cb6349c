package model

import (
	"errors"
	"math"
	"testing"

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
		key, rerr := s.PriceRowCell(&r, new(Column), s.Aggregates([]int{batch}), 0, 0, &row)
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
			key, err := s.PriceRowCell(&r, new(Column), a, bi, nubs[bi], &row)
			if perr := s.EvaluatePoint(mp, g, nubs[bi], &point); err != nil || perr != nil || row != point {
				t.Fatalf("B=%d: row %v (%v) != EvaluatePoint %v (%v)", g, row, err, point, perr)
			}
			if key != float64(point.ExpectedTotalTime()) {
				t.Fatalf("B=%d: rank key %v, ExpectedTotalTime %v", g, key, point.ExpectedTotalTime())
			}
		}
	}
}
