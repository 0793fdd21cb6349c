package model

import (
	"testing"

	"amped/internal/faults"
	"amped/internal/hardware"
	"amped/internal/parallel"
	"amped/internal/transformer"
)

// batchTrainings extends the equivalence recipes with a reliability-enabled
// one, so the batch path's hoisted failure expectation is golden-tested too.
func batchTrainings() []Training {
	trs := equivTrainings()
	trs = append(trs, Training{Reliability: testRelSpec(), NumBatches: 100})
	return trs
}

// TestEvaluateBatchBitIdenticalToScalar is the golden gate for the batched
// path: over every model × training recipe × enumerated mapping × batch —
// including non-dividing batches, TP/PP bound violations and mappings that
// do not tile the system — EvaluateBatch must reproduce EvaluatePoint
// bit-for-bit: same breakdown bits on success, same error message on
// failure. The batch call runs first on a fresh session, so every aggregate
// it reads is built on first touch inside the call.
func TestEvaluateBatchBitIdenticalToScalar(t *testing.T) {
	models := []transformer.Model{
		transformer.Megatron145B(),
		transformer.GLaM(), // MoE: Eq. 9 and expert-sharded Eq. 11
	}
	sys := hardware.System{
		Name: "batch-equiv", Accel: hardware.NvidiaA100(),
		Nodes: 16, AccelsPerNode: 8,
		Intra:       hardware.NVLinkA100(),
		Inter:       hardware.InfinibandHDR(),
		NICsPerNode: 8,
	}
	// 512/768 exercise pow2 and non-pow2 per-replica shapes; 8191 is prime,
	// so most mappings reject it — the error columns must agree too.
	batches := []int{512, 768, 8191}

	for _, m := range models {
		m := m
		mappings := parallel.Enumerate(&sys, parallel.EnumerateOptions{
			MaxTP: m.Heads, MaxPP: m.Layers, ExpertParallel: m.MoE(),
		})
		// A mapping that does not tile the system, spliced mid-stream so a
		// poisoned run sits between healthy ones.
		broken := parallel.Mapping{TPIntra: 4, DPInter: 128}
		mappings = append(mappings[:len(mappings)/2],
			append([]parallel.Mapping{broken}, mappings[len(mappings)/2:]...)...)

		for ti, tr := range batchTrainings() {
			sess, err := Compile(&m, &sys, tr, nil)
			if err != nil {
				t.Fatal(err)
			}

			var in BatchInput
			for _, mp := range mappings {
				for _, b := range batches {
					in.Mappings = append(in.Mappings, mp)
					in.Batches = append(in.Batches, b)
					in.Microbatches = append(in.Microbatches, 0)
				}
			}
			var out BatchOutput
			if err := sess.EvaluateBatch(in, &out); err != nil {
				t.Fatal(err)
			}

			var want Breakdown
			for i := range in.Mappings {
				scalarErr := sess.EvaluatePoint(in.Mappings[i], in.Batches[i], in.Microbatches[i], &want)
				id := in.Mappings[i].String()
				if scalarErr != nil {
					if out.Errs[i] == nil || out.Errs[i].Error() != scalarErr.Error() {
						t.Fatalf("%s tr%d %s B=%d: error mismatch: scalar=%q batch=%v",
							m.Name, ti, id, in.Batches[i], scalarErr, out.Errs[i])
					}
					continue
				}
				if out.Errs[i] != nil {
					t.Fatalf("%s tr%d %s B=%d: scalar succeeded, batch err=%v",
						m.Name, ti, id, in.Batches[i], out.Errs[i])
				}
				if out.Breakdowns[i] != want {
					t.Fatalf("%s tr%d %s B=%d: batch breakdown diverged bit-wise from scalar:\nbatch:  %+v\nscalar: %+v",
						m.Name, ti, id, in.Batches[i], out.Breakdowns[i], want)
				}
			}
		}
	}
}

// TestEvaluateBatchExplicitMicrobatches pins the microbatch column: raw
// N_ub choices (valid, defaulted and non-dividing) must match the scalar
// path point for point.
func TestEvaluateBatchExplicitMicrobatches(t *testing.T) {
	m := transformer.Megatron145B()
	sys := hardware.CaseStudy1System()
	sess, err := Compile(&m, &sys, Training{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mp := parallel.Mapping{TPIntra: 8, PPInter: 2, DPInter: 64}
	in := BatchInput{
		Mappings:     []parallel.Mapping{mp, mp, mp, mp},
		Batches:      []int{8192, 8192, 8192, 8192},
		Microbatches: []int{0, 1, 64, 3}, // 3 does not divide the per-replica batch
	}
	var out BatchOutput
	if err := sess.EvaluateBatch(in, &out); err != nil {
		t.Fatal(err)
	}
	var want Breakdown
	for i := range in.Mappings {
		scalarErr := sess.EvaluatePoint(in.Mappings[i], in.Batches[i], in.Microbatches[i], &want)
		if (scalarErr == nil) != (out.Errs[i] == nil) ||
			scalarErr != nil && scalarErr.Error() != out.Errs[i].Error() {
			t.Fatalf("point %d: scalar err %v, batch err %v", i, scalarErr, out.Errs[i])
		}
		if scalarErr == nil && out.Breakdowns[i] != want {
			t.Fatalf("point %d: breakdown diverged", i)
		}
	}
	if out.Errs[3] == nil {
		t.Error("non-dividing microbatch count accepted")
	}
}

// TestEvaluateBatchColumnValidation pins the call-level error contract:
// mismatched columns are rejected before any evaluation, a nil microbatch
// column means "derive the default", and output columns are recycled
// without leaking stale results.
func TestEvaluateBatchColumnValidation(t *testing.T) {
	m := transformer.Megatron145B()
	sys := hardware.CaseStudy1System()
	sess, err := Compile(&m, &sys, Training{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mp := parallel.Mapping{TPIntra: 8, PPInter: 2, DPInter: 64}
	var out BatchOutput
	if err := sess.EvaluateBatch(BatchInput{
		Mappings: []parallel.Mapping{mp}, Batches: []int{8192, 4096},
	}, &out); err == nil {
		t.Error("mismatched mapping/batch columns accepted")
	}
	if err := sess.EvaluateBatch(BatchInput{
		Mappings:     []parallel.Mapping{mp},
		Batches:      []int{8192},
		Microbatches: []int{0, 0},
	}, &out); err == nil {
		t.Error("mismatched microbatch column accepted")
	}
	if err := sess.EvaluateBatch(BatchInput{Mappings: []parallel.Mapping{mp}, Batches: []int{8192}}, nil); err == nil {
		t.Error("nil output accepted")
	}

	// Fill with a success, then recycle the output for a failing point: the
	// stale breakdown must be zeroed.
	if err := sess.EvaluateBatch(BatchInput{
		Mappings: []parallel.Mapping{mp}, Batches: []int{8192},
	}, &out); err != nil {
		t.Fatal(err)
	}
	if out.Errs[0] != nil || out.Breakdowns[0].PerBatch() <= 0 {
		t.Fatalf("valid point failed: %v", out.Errs[0])
	}
	if err := sess.EvaluateBatch(BatchInput{
		Mappings: []parallel.Mapping{mp}, Batches: []int{8191},
	}, &out); err != nil {
		t.Fatal(err)
	}
	if out.Errs[0] == nil {
		t.Fatal("indivisible batch accepted")
	}
	if out.Breakdowns[0] != (Breakdown{}) {
		t.Error("recycled output leaked the previous chunk's breakdown")
	}

	// Empty input is a no-op, not an error.
	if err := sess.EvaluateBatch(BatchInput{}, &out); err != nil {
		t.Errorf("empty input: %v", err)
	}
	if len(out.Errs) != 0 || len(out.Breakdowns) != 0 {
		t.Errorf("empty input left %d errors, %d breakdowns", len(out.Errs), len(out.Breakdowns))
	}
}

// TestEvaluateBatchReliabilityGating pins the hoisted reliability branch: a
// nil spec leaves every breakdown's expectation zero (legacy path), a
// non-nil one reproduces the scalar expectation bit-for-bit.
func TestEvaluateBatchReliabilityGating(t *testing.T) {
	m := transformer.Megatron145B()
	sys := hardware.CaseStudy1System()
	mp := parallel.Mapping{TPIntra: 8, PPInter: 2, DPInter: 64}
	in := BatchInput{Mappings: []parallel.Mapping{mp}, Batches: []int{8192}}

	plain, err := Compile(&m, &sys, Training{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out BatchOutput
	if err := plain.EvaluateBatch(in, &out); err != nil {
		t.Fatal(err)
	}
	if out.Breakdowns[0].Reliability != (faults.Expectation{}) {
		t.Error("nil reliability spec produced a non-zero expectation")
	}

	rel, err := Compile(&m, &sys, Training{Reliability: testRelSpec()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.EvaluateBatch(in, &out); err != nil {
		t.Fatal(err)
	}
	var want Breakdown
	if err := rel.EvaluatePoint(mp, 8192, 0, &want); err != nil {
		t.Fatal(err)
	}
	if out.Breakdowns[0].Reliability != want.Reliability {
		t.Errorf("batch expectation %+v != scalar %+v", out.Breakdowns[0].Reliability, want.Reliability)
	}
	if out.Breakdowns[0] != want {
		t.Error("batch breakdown diverged bit-wise from the scalar reliability breakdown")
	}
}
