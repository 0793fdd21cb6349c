package model

import (
	"math"
	"testing"

	"amped/internal/hardware"
	"amped/internal/parallel"
	"amped/internal/precision"
	"amped/internal/transformer"
)

// TestProfileSumsToBreakdown pins the per-layer profile to the breakdown it
// splits: over every case the layer sums must reproduce the breakdown's
// compute, its exposed forward/backward communication (ZeRO included) and
// its exposed gradient all-reduce. The cases cover the terms a separately
// priced profile used to drift on: the GQA-narrowed CP K/V exchange, the
// bucketed gradient overlap, CommOverlap and the ZeRO overhead.
func TestProfileSumsToBreakdown(t *testing.T) {
	llama := transformer.Llama70B()
	cs1 := hardware.CaseStudy1System()
	llamaCP := func(tr Training) *Estimator {
		tr.Batch = parallel.Batch{Global: 1024}
		return &Estimator{
			Model: &llama, System: &cs1, Training: tr,
			Mapping: parallel.Mapping{TPIntra: 8, CPInter: 2, DPInter: 64},
		}
	}
	withTraining := func(e *Estimator, tr Training) *Estimator {
		tr.Batch = e.Training.Batch
		e.Training = tr
		return e
	}
	cases := []struct {
		name string
		e    *Estimator
	}{
		{"megatron-tp8-pp2", cs1Estimator(parallel.Mapping{TPIntra: 8, PPInter: 2, DPInter: 64}, 8192)},
		{"llama70b-tp8-cp2", llamaCP(Training{})},
		{"grad-overlap", llamaCP(Training{GradOverlap: 1})},
		{"comm-overlap", withTraining(cs1Estimator(parallel.Mapping{TPIntra: 8, PPInter: 2, DPInter: 64}, 8192),
			Training{CommOverlap: 0.7})},
		{"zero", withTraining(cs1Estimator(parallel.Mapping{TPIntra: 8, PPInter: 2, DPInter: 64}, 8192),
			Training{ZeROOverhead: 0.5})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bd, err := tc.e.Evaluate()
			if err != nil {
				t.Fatal(err)
			}
			profiles, err := tc.e.ProfileLayers()
			if err != nil {
				t.Fatal(err)
			}
			if len(profiles) != tc.e.Model.Layers {
				t.Fatalf("profiles = %d, want %d", len(profiles), tc.e.Model.Layers)
			}
			var compute, comm, grad float64
			for _, p := range profiles {
				compute += float64(p.Compute)
				comm += float64(p.Comm)
				grad += float64(p.GradAR)
			}
			check := func(what string, got, want float64) {
				t.Helper()
				if math.Abs(got-want) > 1e-12*math.Abs(want) {
					t.Errorf("profile %s %.17g != breakdown %.17g", what, got, want)
				}
			}
			check("compute", compute, float64(bd.ComputeTime()))
			check("comm", comm, float64(bd.TPIntraComm+bd.TPInterComm+bd.PPComm+bd.CPComm+bd.MoEComm+bd.ZeROComm))
			check("grad", grad, float64(bd.GradIntraComm+bd.GradInterComm))
		})
	}
}

func TestProfileDenseUniform(t *testing.T) {
	e := cs1Estimator(parallel.Mapping{TPIntra: 8, DPInter: 128}, 8192)
	profiles, err := e.ProfileLayers()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range profiles {
		if p.MoE {
			t.Fatalf("dense model flagged MoE at %d", i)
		}
		if p.Layer != i {
			t.Fatalf("layer index %d at %d", p.Layer, i)
		}
		if p.Total() <= 0 {
			t.Fatalf("layer %d non-positive total", i)
		}
		if i > 0 && math.Abs(float64(p.Total()-profiles[0].Total())) > 1e-12*float64(profiles[0].Total()) {
			t.Fatalf("dense layers differ: %v vs %v", p.Total(), profiles[0].Total())
		}
	}
}

func TestProfileMoELayersStandOut(t *testing.T) {
	g := transformer.GLaM()
	sys := hardware.OpticalSystem(hardware.OpticalOptions{
		AccelsPerNode: 8, EdgeAccels: 8, TotalAccels: 3072,
	})
	e := &Estimator{
		Model:   &g,
		System:  &sys,
		Mapping: parallel.Mapping{TPIntra: 8, DPInter: 384, ExpertParallel: true},
		Training: Training{
			Batch:    parallel.Batch{Global: 6144},
			Operands: precision.Uniform(precision.FP8),
		},
	}
	profiles, err := e.ProfileLayers()
	if err != nil {
		t.Fatal(err)
	}
	moe, dense := 0, 0
	for i, p := range profiles {
		if p.MoE {
			moe++
			// MoE layers: more compute (top-2 experts), extra all-to-all.
			if p.Compute <= profiles[0].Compute || p.Comm <= profiles[0].Comm {
				t.Errorf("MoE layer %d not heavier than dense layer 0", i)
			}
		} else {
			dense++
		}
	}
	if moe != 32 || dense != 32 {
		t.Errorf("moe/dense split = %d/%d", moe, dense)
	}
}

func TestProfileErrors(t *testing.T) {
	e := cs1Estimator(parallel.Mapping{TPIntra: 4, DPInter: 128}, 8192) // does not tile
	if _, err := e.ProfileLayers(); err == nil {
		t.Error("invalid estimator profiled")
	}
}
