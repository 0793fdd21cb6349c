package model

import (
	"math"
	"reflect"
	"testing"

	"amped/internal/faults"
	"amped/internal/hardware"
	"amped/internal/parallel"
	"amped/internal/transformer"
)

func testRelSpec() *faults.Spec {
	return &faults.Spec{
		AccelMTBF:              5e6,
		NodeMTBF:               2e7,
		LinkMTBF:               5e7,
		CheckpointBW:           2e9,
		RestartTime:            300,
		OptimizerBytesPerParam: 12,
	}
}

// TestReliabilityDisabledBitIdentical pins the acceptance criterion that a
// training recipe without a reliability spec produces bit-identical
// breakdowns to the pre-reliability model: the zero-value spec and a nil one
// are both inert.
func TestReliabilityDisabledBitIdentical(t *testing.T) {
	m := transformer.Megatron145B()
	sys := hardware.CaseStudy1System()
	mp := parallel.Mapping{TPIntra: 8, PPInter: 2, DPInter: 64}

	base, err := Compile(&m, &sys, Training{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := Compile(&m, &sys, Training{Reliability: &faults.Spec{}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var a, b Breakdown
	if err := base.EvaluatePoint(mp, 8192, 0, &a); err != nil {
		t.Fatal(err)
	}
	if err := zero.EvaluatePoint(mp, 8192, 0, &b); err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("zero-value reliability spec perturbed the breakdown")
	}
	if a.Reliability != (faults.Expectation{}) {
		t.Errorf("disabled reliability expectation not zero: %+v", a.Reliability)
	}
	if a.GoodputFraction() != 1 {
		t.Errorf("disabled goodput = %g, want 1", a.GoodputFraction())
	}
	if a.ExpectedPerBatch() != a.PerBatch() || a.ExpectedTotalTime() != a.TotalTime() {
		t.Error("disabled reliability inflated the expected time")
	}
}

// TestReliabilityExpectation pins the failure model's wiring: the expectation
// on the breakdown must match faults.Spec.Expect over the cluster geometry
// the session derives from the mapping and the system, and it must not
// perturb the Eq. 1 component terms.
func TestReliabilityExpectation(t *testing.T) {
	m := transformer.Megatron145B()
	sys := hardware.CaseStudy1System()
	spec := testRelSpec()

	base, err := Compile(&m, &sys, Training{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := Compile(&m, &sys, Training{Reliability: spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mp := parallel.Mapping{TPIntra: 8, PPInter: 2, DPInter: 64}
	var healthy, got Breakdown
	if err := base.EvaluatePoint(mp, 8192, 0, &healthy); err != nil {
		t.Fatal(err)
	}
	if err := rel.EvaluatePoint(mp, 8192, 0, &got); err != nil {
		t.Fatal(err)
	}

	// The pure Eq. 1 terms are untouched; only the expectation is added.
	withoutRel := got
	withoutRel.Reliability = faults.Expectation{}
	if withoutRel != healthy {
		t.Error("reliability spec perturbed the failure-free breakdown terms")
	}

	e := got.Reliability
	if !e.Enabled() {
		t.Fatal("expectation not populated")
	}
	w := got.Workers
	nodes := faults.NodesFor(w, sys.AccelsPerNode)
	wantRate := spec.FailureRate(faults.Cluster{
		Workers: w, Nodes: nodes, Links: nodes * sys.NICsPerNode,
	})
	if math.Abs(e.FailureRate-wantRate) > 1e-18 {
		t.Errorf("failure rate = %g, want %g", e.FailureRate, wantRate)
	}
	if g := got.GoodputFraction(); g <= 0 || g >= 1 {
		t.Errorf("goodput %g outside (0,1) with failures enabled", g)
	}
	wantExp := float64(got.PerBatch()) * (1 + e.Overhead())
	if math.Abs(float64(got.ExpectedPerBatch())-wantExp) > 1e-12*wantExp {
		t.Errorf("ExpectedPerBatch = %v, want %g", got.ExpectedPerBatch(), wantExp)
	}

	// The per-worker checkpoint shard scales as 1/W: the same model on a
	// half-size system (mappings must span the whole machine) doubles δ.
	half := sys
	half.Nodes = sys.Nodes / 2
	relHalf, err := Compile(&m, &half, Training{Reliability: spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	small := parallel.Mapping{TPIntra: 8, PPInter: 2, DPInter: 32}
	var got2 Breakdown
	if err := relHalf.EvaluatePoint(small, 8192, 0, &got2); err != nil {
		t.Fatal(err)
	}
	ratio := got2.Reliability.CheckpointWrite / e.CheckpointWrite
	if math.Abs(ratio-2) > 1e-12 {
		t.Errorf("δ ratio at half the workers = %g, want 2", ratio)
	}
	// And the smaller world fails less often.
	if got2.Reliability.FailureRate >= e.FailureRate {
		t.Errorf("failure rate did not fall with world size: %g vs %g",
			got2.Reliability.FailureRate, e.FailureRate)
	}
}

// TestReliabilityAllocs extends the zero-allocation gate to the
// reliability-enabled path: the expectation is pure arithmetic on hoisted
// scalars.
func TestReliabilityAllocs(t *testing.T) {
	m := transformer.Megatron145B()
	sys := hardware.CaseStudy1System()
	sess, err := Compile(&m, &sys, Training{Reliability: testRelSpec()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mp := parallel.Mapping{TPIntra: 8, PPInter: 2, DPInter: 64}
	var out Breakdown
	if allocs := testing.AllocsPerRun(100, func() {
		if err := sess.EvaluatePoint(mp, 8192, 64, &out); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("reliability EvaluatePoint allocates %v times per point, want 0", allocs)
	}
}

// TestScenarioKeyReliability pins the cache-key canonicalization: the spec
// hashes by value (not pointer address), a disabled spec collides with nil,
// and distinct specs get distinct keys.
func TestScenarioKeyReliability(t *testing.T) {
	m := transformer.Megatron145B()
	sys := hardware.CaseStudy1System()

	s1, s2 := testRelSpec(), testRelSpec()
	k1 := ScenarioKey(&m, &sys, Training{Reliability: s1}, nil)
	k2 := ScenarioKey(&m, &sys, Training{Reliability: s2}, nil)
	if k1 != k2 {
		t.Error("equal specs at different addresses hash differently")
	}
	base := ScenarioKey(&m, &sys, Training{}, nil)
	if k1 == base {
		t.Error("reliability spec did not change the scenario key")
	}
	if got := ScenarioKey(&m, &sys, Training{Reliability: &faults.Spec{}}, nil); got != base {
		t.Error("disabled spec must collide with no spec")
	}
	s2.RestartTime = 600
	if k3 := ScenarioKey(&m, &sys, Training{Reliability: s2}, nil); k3 == k1 {
		t.Error("different specs collided")
	}
}

// TestPriceCellWritesEveryField checks that pricing a cell overwrites every
// field of a reused Breakdown, reliability included whether the spec is on
// or off: a breakdown filled with a sentinel in every field, priced, must
// equal one priced from zero, bit for bit. The kernel writes the breakdown
// field by field, so a field it forgot would keep the previous cell's value.
func TestPriceCellWritesEveryField(t *testing.T) {
	m := transformer.Megatron145B()
	sys := hardware.CaseStudy1System()
	mp := parallel.Mapping{TPIntra: 8, PPInter: 2, DPInter: 64}
	for _, rel := range []*faults.Spec{nil, testRelSpec()} {
		sess, err := Compile(&m, &sys, Training{Reliability: rel}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var want, got Breakdown
		if err := sess.EvaluatePoint(mp, 8192, 0, &want); err != nil {
			t.Fatal(err)
		}
		fillSentinel(reflect.ValueOf(&got).Elem())
		if err := sess.EvaluatePoint(mp, 8192, 0, &got); err != nil {
			t.Fatal(err)
		}
		if kernelRecord(got, nil) != kernelRecord(want, nil) {
			t.Errorf("reliability %v: a reused breakdown kept a field of its previous value", rel != nil)
		}
	}
}

// fillSentinel sets every number in v, nested structs included, to -7.
func fillSentinel(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillSentinel(v.Field(i))
		}
	case reflect.Float32, reflect.Float64:
		v.SetFloat(-7)
	case reflect.Int, reflect.Int64:
		v.SetInt(-7)
	default:
		panic("fillSentinel: unhandled kind " + v.Kind().String())
	}
}
