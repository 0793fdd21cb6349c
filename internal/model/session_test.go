package model

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"amped/internal/efficiency"
	"amped/internal/hardware"
	"amped/internal/parallel"
	"amped/internal/topology"
	"amped/internal/transformer"
	"amped/internal/units"
)

// relClose asserts two floats agree to double-precision round-off: the
// session factors the Eq. 2/10/11 layer sums, which reassociates additions
// but must not drift beyond a few ulps.
func relClose(t *testing.T, name string, got, want float64) {
	t.Helper()
	if got == want {
		return
	}
	denom := math.Max(math.Abs(want), math.Abs(got))
	if math.Abs(got-want) > 1e-12*denom {
		t.Errorf("%s = %.17g, want %.17g (rel err %g)", name, got, want,
			math.Abs(got-want)/denom)
	}
}

// equivTrainings covers every knob that changes the evaluation structure:
// defaults, embedding accounting, ZeRO, partial overlap, tree topology,
// explicit backward factors.
func equivTrainings() []Training {
	return []Training{
		{},
		{IncludeEmbedding: true},
		{ZeROOverhead: 0.5, CommOverlap: 0.7},
		{
			BubbleRatio: 0.3, BackwardComputeFactor: 1.5, BackwardCommFactor: 0.5,
			Topology: topology.Choice{AllReduce: topology.Tree, AllToAll: topology.PairwiseAllToAll},
		},
	}
}

// TestSessionMatchesReference is the golden equivalence sweep: for every
// model preset × accelerator preset × enumerated mapping × batch × training
// recipe, Session.EvaluatePoint must reproduce the pre-session
// referenceEvaluate breakdown to round-off, and must be bit-identical to
// the rewired Estimator.Evaluate.
func TestSessionMatchesReference(t *testing.T) {
	models := []transformer.Model{
		transformer.Megatron145B(),
		transformer.GPT3175B(),
		transformer.GLaM(), // MoE: Eq. 9 and expert-sharded Eq. 11
		transformer.MinGPT(),
	}
	accels := []hardware.Accelerator{
		hardware.NvidiaA100(),
		hardware.NvidiaH100(), // FP8-native units: exercises the precision scales
	}
	batches := []int{512, 768} // pow2 and non-pow2 per-replica shapes

	for _, m := range models {
		m := m
		for _, accel := range accels {
			sys := hardware.System{
				Name: "equiv", Accel: accel,
				Nodes: 16, AccelsPerNode: 8,
				Intra:       hardware.NVLinkA100(),
				Inter:       hardware.InfinibandHDR(),
				NICsPerNode: 8,
			}
			mappings := parallel.Enumerate(&sys, parallel.EnumerateOptions{
				MaxTP: m.Heads, MaxPP: m.Layers, PowerOfTwo: true,
				ExpertParallel: m.MoE(),
			})
			if len(mappings) == 0 {
				t.Fatalf("%s: no mappings", m.Name)
			}
			for ti, tr := range equivTrainings() {
				sess, err := Compile(&m, &sys, tr, nil)
				if err != nil {
					t.Fatal(err)
				}
				var got Breakdown
				for _, mp := range mappings {
					for _, b := range batches {
						est := Estimator{Model: &m, System: &sys, Mapping: mp, Training: tr}
						est.Training.Batch = parallel.Batch{Global: b}
						want, refErr := referenceEvaluate(&est)
						err := sess.EvaluatePoint(mp, b, 0, &got)
						if (refErr == nil) != (err == nil) {
							t.Fatalf("%s/%s tr%d %v B=%d: error mismatch: ref=%v session=%v",
								m.Name, accel.Name, ti, mp, b, refErr, err)
						}
						if err != nil {
							continue
						}
						compareBreakdowns(t, &got, want)

						// The estimator facade must be bit-identical to the
						// session it wraps.
						bd, err := est.Evaluate()
						if err != nil {
							t.Fatal(err)
						}
						if *bd != got {
							t.Fatalf("%s/%s tr%d %v B=%d: Estimator.Evaluate diverged from EvaluatePoint",
								m.Name, accel.Name, ti, mp, b)
						}
					}
				}
			}
		}
	}
}

func compareBreakdowns(t *testing.T, got, want *Breakdown) {
	t.Helper()
	gc, wc := got.Components(), want.Components()
	for i := range wc {
		relClose(t, wc[i].Name, float64(gc[i].Time), float64(wc[i].Time))
	}
	relClose(t, "Microbatch", got.Microbatch, want.Microbatch)
	relClose(t, "Efficiency", got.Efficiency, want.Efficiency)
	relClose(t, "ModelFLOPs", float64(got.ModelFLOPs), float64(want.ModelFLOPs))
	if got.Workers != want.Workers || got.NumBatches != want.NumBatches {
		t.Errorf("metadata mismatch: workers %d/%d batches %d/%d",
			got.Workers, want.Workers, got.NumBatches, want.NumBatches)
	}
}

// TestSessionExplicitMicrobatches pins the microbatch-count plumbing: an
// explicit N_ub must match the reference with the same schedule.
func TestSessionExplicitMicrobatches(t *testing.T) {
	m := transformer.Megatron145B()
	sys := hardware.CaseStudy1System()
	sess, err := Compile(&m, &sys, Training{}, efficiency.Default())
	if err != nil {
		t.Fatal(err)
	}
	mp := parallel.Mapping{TPIntra: 8, PPInter: 2, DPInter: 64}
	for _, nub := range []int{1, 4, 64} {
		est := Estimator{
			Model: &m, System: &sys, Mapping: mp,
			Training: Training{Batch: parallel.Batch{Global: 8192, Microbatches: nub}},
		}
		want, err := referenceEvaluate(&est)
		if err != nil {
			t.Fatal(err)
		}
		var got Breakdown
		if err := sess.EvaluatePoint(mp, 8192, nub, &got); err != nil {
			t.Fatal(err)
		}
		compareBreakdowns(t, &got, want)
	}
}

// TestSessionValidation pins the per-point error checks the session must
// re-run for every point (the scenario-level ones are hoisted to Compile).
func TestSessionValidation(t *testing.T) {
	m := transformer.Megatron145B()
	sys := hardware.CaseStudy1System()
	sess, err := Compile(&m, &sys, Training{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out Breakdown
	good := parallel.Mapping{TPIntra: 8, PPInter: 2, DPInter: 64}
	if err := sess.EvaluatePoint(good, 8192, 0, &out); err != nil {
		t.Fatalf("valid point rejected: %v", err)
	}
	cases := []struct {
		name  string
		mp    parallel.Mapping
		batch int
		nub   int
	}{
		{"mapping does not tile", parallel.Mapping{TPIntra: 4, DPInter: 128}, 8192, 0},
		{"batch not divisible by DP", good, 8191, 0},
		{"microbatches do not divide", good, 8192, 3},
		{"PP exceeds layers", parallel.Mapping{TPIntra: 8, PPInter: 128}, 8192, 0},
	}
	for _, c := range cases {
		if err := sess.EvaluatePoint(c.mp, c.batch, c.nub, &out); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
	if _, err := Compile(&m, nil, Training{}, nil); err == nil {
		t.Error("Compile accepted a nil system")
	}
	if _, err := Compile(&m, &sys, Training{BubbleRatio: -1}, nil); err == nil {
		t.Error("Compile accepted a negative bubble ratio")
	}
}

// TestEvaluatePointAllocs is the allocation regression gate for the sweep
// hot path: zero heap allocations per point once the batch's aggregate is
// memoized (AllocsPerRun's warm-up call makes the first touch).
func TestEvaluatePointAllocs(t *testing.T) {
	m := transformer.Megatron145B()
	sys := hardware.CaseStudy1System()
	sess, err := Compile(&m, &sys, Training{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mp := parallel.Mapping{TPIntra: 8, PPInter: 2, DPInter: 64}
	var out Breakdown
	if allocs := testing.AllocsPerRun(100, func() {
		if err := sess.EvaluatePoint(mp, 4096, 64, &out); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("EvaluatePoint allocates %v times per point, want 0", allocs)
	}

	// MoE with expert parallelism exercises the Eq. 9 branch.
	g := transformer.GLaM()
	gs, err := Compile(&g, &sys, Training{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ep := parallel.Mapping{TPIntra: 8, DPInter: 128, ExpertParallel: true}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := gs.EvaluatePoint(ep, 4096, 1, &out); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("MoE EvaluatePoint allocates %v times per point, want 0", allocs)
	}
}

// TestAggMemoFirstTouchRace races 8 goroutines onto one batch that a fresh
// session has never seen, so they build its Eq. 2 aggregate concurrently:
// every goroutine must price the cell bit-identically to a session that
// evaluated it alone, and the memo must settle on one aggregate pointer
// that every goroutine read back. A first touch is a short window, so the
// race is rerun on 64 fresh sessions.
func TestAggMemoFirstTouchRace(t *testing.T) {
	m := transformer.GLaM()
	sys := hardware.CaseStudy1System()
	tr := Training{Roofline: true}
	mp := parallel.Mapping{TPIntra: 8, PPInter: 2, DPInter: 64, ExpertParallel: true}
	const batch = 2048
	solo, err := Compile(&m, &sys, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want Breakdown
	if err := solo.EvaluatePoint(mp, batch, 0, &want); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	for round := 0; round < 64; round++ {
		sess, err := Compile(&m, &sys, tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		var (
			wg    sync.WaitGroup
			start = make(chan struct{})
			bds   [workers]Breakdown
			errs  [workers]error
			ptrs  [workers]*batchAgg
		)
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				errs[i] = sess.EvaluatePoint(mp, batch, 0, &bds[i])
				ptrs[i] = sess.agg(batch)
			}(i)
		}
		close(start)
		wg.Wait()
		final := sess.agg(batch)
		for i := 0; i < workers; i++ {
			if errs[i] != nil {
				t.Fatalf("round %d goroutine %d: %v", round, i, errs[i])
			}
			if bds[i] != want {
				t.Fatalf("round %d goroutine %d: breakdown diverged bit-wise from a solo evaluation:\n got %+v\nwant %+v",
					round, i, bds[i], want)
			}
			if ptrs[i] != final {
				t.Fatalf("round %d goroutine %d read aggregate %p, memo settled on %p", round, i, ptrs[i], final)
			}
		}
	}
}

// TestSessionAccessors pins the compiled-scenario introspection surface.
func TestSessionAccessors(t *testing.T) {
	m := transformer.Megatron145B()
	sys := hardware.CaseStudy1System()
	sess, err := Compile(&m, &sys, Training{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Model() != &m || sess.System() != &sys {
		t.Error("accessors do not round-trip the compiled inputs")
	}
	if got := sess.Training().BubbleRatio; got != 1 {
		t.Errorf("Training() lost the defaults: bubble ratio %v", got)
	}
}

// TestBreakdownFinite checks the kernels' field-wise finiteness check
// against the component lists: every units.Seconds field of a breakdown is
// one of its Components, and setting any one of them to ±Inf or NaN — the
// rest at the largest finite magnitude — makes the breakdown non-finite.
func TestBreakdownFinite(t *testing.T) {
	var train Breakdown
	var serve InferenceBreakdown
	for _, tc := range []struct {
		name       string
		b          any // the breakdown, by pointer
		finite     func() bool
		components int
	}{
		{"training", &train, train.finite, len(train.Components())},
		{"inference", &serve, serve.finite, len(serve.Components())},
	} {
		v := reflect.ValueOf(tc.b).Elem()
		var secs []int
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).Type() == reflect.TypeOf(units.Seconds(0)) {
				secs = append(secs, i)
			}
		}
		if len(secs) != tc.components {
			t.Fatalf("%s: %d Seconds fields, %d components", tc.name, len(secs), tc.components)
		}
		for _, i := range secs {
			for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
				for k, j := range secs {
					v.Field(j).SetFloat(math.MaxFloat64 * float64(1-2*(k%2)))
				}
				if !tc.finite() {
					t.Fatalf("%s: largest finite values reported non-finite", tc.name)
				}
				v.Field(i).SetFloat(bad)
				if tc.finite() {
					t.Fatalf("%s: %s = %v reported finite", tc.name, v.Type().Field(i).Name, bad)
				}
			}
		}
	}
}
