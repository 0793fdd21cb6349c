package model

import (
	"testing"

	"amped/internal/hardware"
	"amped/internal/parallel"
	"amped/internal/transformer"
)

// gqaCPSystem is a 2x2 machine with zero-latency links so every collective
// costs exactly volume x factor / bandwidth — making the CP K/V exchange
// exactly proportional to its payload, which is what the GQA fix changes.
func gqaCPSystem() hardware.System {
	return hardware.System{
		Name:          "gqa-cp",
		Accel:         hardware.NvidiaA100(),
		Nodes:         2,
		AccelsPerNode: 2,
		Intra:         hardware.Link{Name: "intra", Latency: 0, Bandwidth: 2.4e12},
		Inter:         hardware.Link{Name: "inter", Latency: 0, Bandwidth: 2e11},
		NICsPerNode:   2,
	}
}

// TestCPCommGQAPayload pins the CP K/V-exchange payload to the variant's
// K/V width: under grouped-query attention the exchanged keys/values are
// kvFrac·h wide, so with latency-free links CPComm must shrink by exactly
// the KV-head fraction (a power of two here, so the scaling is exact in
// float64). A sliding window must not move CPComm at all — the exchange
// carries the rank's full K/V shard regardless of who attends to it.
func TestCPCommGQAPayload(t *testing.T) {
	base := transformer.Model{
		Name: "cp-base", Layers: 4, Hidden: 1024, Heads: 16,
		SeqLen: 2048, Vocab: 1000, FFNRatio: 4,
	}
	sys := gqaCPSystem()
	mp := parallel.Mapping{CPIntra: 2, CPInter: 2}

	eval := func(m transformer.Model) *Breakdown {
		t.Helper()
		sess, err := Compile(&m, &sys, Training{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		bd, err := sess.Evaluate(mp, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		return bd
	}

	ref := eval(base)
	if ref.CPComm <= 0 {
		t.Fatalf("base CPComm = %v, want positive", ref.CPComm)
	}

	cases := []struct {
		name     string
		variant  transformer.Variant
		wantFrac float64 // CPComm relative to the base model
	}{
		{"mha-explicit", transformer.Variant{KVHeads: 16}, 1},
		{"gqa-4", transformer.Variant{KVHeads: 4}, 0.25},
		{"mqa", transformer.Variant{KVHeads: 1}, 1.0 / 16},
		{"window", transformer.Variant{Window: 512}, 1},
		{"gqa-4+window", transformer.Variant{KVHeads: 4, Window: 512}, 0.25},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := c.variant.Apply(base)
			if err != nil {
				t.Fatal(err)
			}
			bd := eval(m)
			if want := float64(ref.CPComm) * c.wantFrac; float64(bd.CPComm) != want {
				t.Errorf("CPComm = %.17g, want %.17g (%g x base %.17g)",
					float64(bd.CPComm), want, c.wantFrac, float64(ref.CPComm))
			}
		})
	}
}

// TestCPCommLlama70BOvercount is the headline regression: LLaMA-2 70B uses
// GQA-8 (8 of 64 KV heads), so its CP exchange must be exactly 8x smaller
// than a dense-attention twin of the same dimensions — previously both
// priced identically at the full hidden width.
func TestCPCommLlama70BOvercount(t *testing.T) {
	gqa := transformer.Llama70B()
	dense := transformer.Model{
		Name: "llama-70b-dense", Layers: gqa.Layers, Hidden: gqa.Hidden,
		Heads: gqa.Heads, SeqLen: gqa.SeqLen, Vocab: gqa.Vocab,
		FFNRatio: gqa.FFNRatio,
	}
	sys := gqaCPSystem()
	mp := parallel.Mapping{CPIntra: 2, CPInter: 2}

	sessG, err := Compile(&gqa, &sys, Training{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sessD, err := Compile(&dense, &sys, Training{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bdG, err := sessG.Evaluate(mp, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	bdD, err := sessD.Evaluate(mp, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bdD.CPComm <= 0 {
		t.Fatalf("dense CPComm = %v, want positive", bdD.CPComm)
	}
	if got, want := float64(bdG.CPComm), float64(bdD.CPComm)/8; got != want {
		t.Errorf("GQA-8 CPComm = %.17g, want dense/8 = %.17g (ratio %.3f)",
			got, want, float64(bdD.CPComm)/float64(bdG.CPComm))
	}

	// The batched engine must carry the same fix bit-for-bit.
	in := BatchInput{
		Mappings:     []parallel.Mapping{mp},
		Batches:      []int{4},
		Microbatches: []int{0},
	}
	var out BatchOutput
	if err := sessG.EvaluateBatch(in, &out); err != nil {
		t.Fatal(err)
	}
	if out.Errs[0] != nil {
		t.Fatalf("batch error %v", out.Errs[0])
	}
	if out.Breakdowns[0] != *bdG {
		t.Error("EvaluateBatch CPComm diverged from the scalar GQA fix")
	}
}
