package audit

import (
	"math/rand"
	"testing"

	"amped/internal/model"
)

// TestInferenceDifferential is the serving counterpart of the three-way
// harness: over randomized scenarios the compiled InferenceSession and the
// literal re-derivation must agree on every component within 1e-9, and the
// error outcomes must agree.
func TestInferenceDifferential(t *testing.T) {
	const n = 300
	const tol = 1e-9
	evaluated := 0
	for i := 0; i < n; i++ {
		r := rand.New(rand.NewSource(int64(1000 + i)))
		sc := GenerateInference(r)
		sess, err := model.CompileInference(&sc.Model, &sc.System, sc.Training, sc.Eff, sc.Inference)
		if err != nil {
			t.Fatalf("seed %d: CompileInference rejected a generated scenario: %v", i, err)
		}
		got, errP := sess.Evaluate(sc.Mapping, sc.Batch)
		if errP != nil {
			// Degenerate points (non-finite times) are legal generator output;
			// the literal must agree they are degenerate.
			if _, errL := InferenceLiteral(&sc); errL == nil {
				t.Errorf("seed %d: production failed (%v) but literal evaluated cleanly", i, errP)
			}
			continue
		}
		evaluated++
		want, errL := InferenceLiteral(&sc)
		if errL != nil {
			t.Errorf("seed %d: literal failed (%v) on a point production accepted", i, errL)
			continue
		}

		gc, wc := got.Components(), want.Components()
		for k := range gc {
			if !relClose(float64(gc[k].Time), float64(wc[k].Time), tol) {
				t.Errorf("seed %d: %s = %.17g, literal %.17g (rel %.3g)",
					i, gc[k].Name, float64(gc[k].Time), float64(wc[k].Time),
					relErr(float64(gc[k].Time), float64(wc[k].Time)))
			}
		}
		if !relClose(float64(got.KVBytesPerSeq), float64(want.KVBytesPerSeq), tol) {
			t.Errorf("seed %d: KVBytesPerSeq = %v, literal %v", i, got.KVBytesPerSeq, want.KVBytesPerSeq)
		}
		if got.Efficiency != want.Efficiency || got.Workers != want.Workers ||
			got.BatchPerReplica != want.BatchPerReplica {
			t.Errorf("seed %d: scalar echo fields diverged", i)
		}
		if !relClose(float64(got.PrefillFLOPs), float64(want.PrefillFLOPs), tol) ||
			!relClose(float64(got.DecodeFLOPs), float64(want.DecodeFLOPs), tol) {
			t.Errorf("seed %d: FLOP accounting diverged", i)
		}

		// A second evaluation through the zero-alloc entry point must be
		// bit-identical (the aggregate memoization cannot drift).
		var again model.InferenceBreakdown
		if err := sess.EvaluateInferencePoint(sc.Mapping, sc.Batch, &again); err != nil {
			t.Errorf("seed %d: re-evaluation failed: %v", i, err)
		} else if again != *got {
			t.Errorf("seed %d: re-evaluation diverged bit-wise", i)
		}
	}
	if evaluated < n/2 {
		t.Fatalf("only %d/%d scenarios evaluated cleanly; generator degenerated", evaluated, n)
	}
}
