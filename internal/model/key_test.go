package model

import (
	"regexp"
	"testing"

	"amped/internal/efficiency"
	"amped/internal/hardware"
	"amped/internal/parallel"
	"amped/internal/transformer"
)

func TestScenarioKeyStableAndCanonical(t *testing.T) {
	m := transformer.Megatron145B()
	sys := hardware.CaseStudy1System()

	base := ScenarioKey(&m, &sys, Training{}, nil)
	if !regexp.MustCompile(`^[0-9a-f]{64}$`).MatchString(base) {
		t.Fatalf("key %q is not a sha256 hex digest", base)
	}
	if again := ScenarioKey(&m, &sys, Training{}, nil); again != base {
		t.Errorf("key not deterministic: %q vs %q", base, again)
	}

	// Defaults collapse: an explicit default recipe and the zero recipe
	// must share a key, as must nil vs. the default efficiency model.
	explicit := Training{BubbleRatio: 1, BackwardComputeFactor: 2, BackwardCommFactor: 1, NumBatches: 1}
	if k := ScenarioKey(&m, &sys, explicit, efficiency.Default()); k != base {
		t.Errorf("explicit-default recipe got a different key")
	}

	// The batch schedule is a per-point input, not part of the scenario.
	withBatch := Training{Batch: parallel.Batch{Global: 4096, Microbatches: 8}}
	if k := ScenarioKey(&m, &sys, withBatch, nil); k != base {
		t.Errorf("batch schedule leaked into the scenario key")
	}

	// Everything else must discriminate.
	m2 := m
	m2.Layers++
	if ScenarioKey(&m2, &sys, Training{}, nil) == base {
		t.Errorf("model change not reflected in key")
	}
	sys2 := sys
	sys2.Nodes *= 2
	if ScenarioKey(&m, &sys2, Training{}, nil) == base {
		t.Errorf("system change not reflected in key")
	}
	if ScenarioKey(&m, &sys, Training{CommOverlap: 0.5}, nil) == base {
		t.Errorf("training change not reflected in key")
	}
	if ScenarioKey(&m, &sys, Training{}, efficiency.Fixed(0.5)) == base {
		t.Errorf("efficiency change not reflected in key")
	}
	if ScenarioKey(&m, &sys, Training{}, efficiency.Saturating{A: 0.9, B: 28, Floor: 0.2}) == base {
		t.Errorf("efficiency parameterization not reflected in key")
	}
}

func TestSessionKeyMatchesScenarioKey(t *testing.T) {
	m := transformer.Megatron145B()
	sys := hardware.CaseStudy1System()
	tr := Training{NumBatches: 10}
	sess, err := Compile(&m, &sys, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sess.Key(), ScenarioKey(&m, &sys, tr, nil); got != want {
		t.Errorf("Session.Key() = %q, want %q", got, want)
	}
}

func TestSessionConcurrentUnpreparedEvaluation(t *testing.T) {
	// A shared session must be safe (and converge to the memoized fast
	// path) under concurrent evaluation — the serving layer hands one
	// cached session to many requests at once.
	m := transformer.Megatron145B()
	sys := hardware.CaseStudy1System()
	sess, err := Compile(&m, &sys, Training{NumBatches: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mp := parallel.Mapping{TPIntra: 8, PPInter: 8, DPInter: 16}
	var ref Breakdown
	if err := sess.EvaluatePoint(mp, 4096, 0, &ref); err != nil {
		t.Fatal(err)
	}
	done := make(chan *Breakdown, 8)
	for i := 0; i < 8; i++ {
		go func(batch int) {
			var bd Breakdown
			if err := sess.EvaluatePoint(mp, batch, 0, &bd); err != nil {
				done <- nil
				return
			}
			done <- &bd
		}(4096 + 4096*(i%3))
	}
	for i := 0; i < 8; i++ {
		if bd := <-done; bd == nil {
			t.Fatal("concurrent evaluation failed")
		}
	}
	var again Breakdown
	if err := sess.EvaluatePoint(mp, 4096, 0, &again); err != nil {
		t.Fatal(err)
	}
	if again != ref {
		t.Errorf("memoized evaluation diverged from first evaluation")
	}
}
