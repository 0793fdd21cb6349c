package plan

import (
	"math/rand"
	"testing"

	"amped/internal/audit"
	"amped/internal/memkit"
	"amped/internal/model"
	"amped/internal/parallel"
	"amped/internal/units"
)

// exhaustiveInference reproduces the serving ranking front by brute force:
// evaluate every mapping, keep the minimal (PerToken, identity) pair among
// mappings that pass the same KV-aware feasibility gate the planner applies.
func exhaustiveInference(t *testing.T, sess *model.InferenceSession, opt InferenceOptions) (parallel.Mapping, float64, bool) {
	t.Helper()
	mappings := opt.Mappings
	if len(mappings) == 0 {
		en := opt.Enumerate
		if en.MaxTP == 0 {
			en.MaxTP = sess.Model().Heads
		}
		if en.MaxPP == 0 {
			en.MaxPP = sess.Model().Layers
		}
		mappings = parallel.Enumerate(sess.System(), en)
	}
	inf := sess.Inference()
	ctx := inf.PromptLen + inf.GenTokens
	var best parallel.Mapping
	var bestRank float64
	found := false
	for _, mp := range mappings {
		if kvInfeasible(sess, mp, opt.Batch, ctx, opt.MemoryReserve) {
			continue
		}
		b, err := sess.Evaluate(mp, opt.Batch)
		if err != nil {
			continue
		}
		rank := float64(b.PerToken())
		if !found || rank < bestRank ||
			(rank == bestRank && mp.String() < best.String()) {
			best, bestRank, found = mp, rank, true
		}
	}
	return best, bestRank, found
}

// kvInfeasible mirrors the planner's gate so the cross-check filters the
// identical set of mappings.
func kvInfeasible(sess *model.InferenceSession, mp parallel.Mapping, batch, ctx int, reserve float64) bool {
	accel := sess.System().Accel
	dp := mp.DP()
	if accel.Memory <= 0 || batch%dp != 0 {
		return false
	}
	maxSeqs, err := memkit.MaxConcurrentSeqs(sess.Model(), mp.Normalized(), ctx,
		sess.Training().Operands, accel, reserve)
	return err == nil && batch/dp > maxSeqs
}

// TestSolveInferenceMatchesExhaustive is the serving analogue of the
// training planner's equivalence property: over randomized audit scenarios,
// the planner returns the identical optimum — exact rank float64 bits and
// mapping identity — as brute-force enumeration.
func TestSolveInferenceMatchesExhaustive(t *testing.T) {
	const seeds = 40
	ranked := 0
	for seed := int64(1); seed <= seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := audit.GenerateInference(r)
		sess, err := model.CompileInference(&s.Model, &s.System, s.Training, s.Eff, s.Inference)
		if err != nil {
			t.Fatalf("seed %d: CompileInference: %v", seed, err)
		}
		opt := InferenceOptions{
			Batch: s.Batch,
			Enumerate: parallel.EnumerateOptions{
				PowerOfTwo:     true,
				ExpertParallel: s.Mapping.ExpertParallel,
			},
			MemoryReserve: 0.1,
		}
		// Every third seed gives the device a capacity so the KV gate
		// engages; the generator leaves Accel.Memory zero otherwise.
		if seed%3 == 0 {
			caps := []units.Bytes{2e9, 2e10, 8e10}
			s.System.Accel.Memory = caps[int(seed)%len(caps)]
		}

		res, err := SolveInference(sess, opt)
		if err != nil {
			t.Fatalf("seed %d: SolveInference: %v", seed, err)
		}
		wantMp, wantRank, found := exhaustiveInference(t, sess, opt)

		switch {
		case !found && res.Best == nil:
			// Consistently infeasible space.
		case !found || res.Best == nil:
			t.Fatalf("seed %d: feasibility disagreement: exhaustive found=%v, solver best %v",
				seed, found, res.Best)
		default:
			ranked++
			if res.RankSeconds != wantRank {
				t.Errorf("seed %d: rank diverged: solver %x, exhaustive %x",
					seed, res.RankSeconds, wantRank)
			}
			if res.Best.Mapping.String() != wantMp.String() {
				t.Errorf("seed %d: optimum diverged: solver %q, exhaustive %q",
					seed, res.Best.Mapping.String(), wantMp.String())
			}
			if got, want := res.TokensPerSecond, res.Best.Breakdown.TokensPerSecond(); got != want {
				t.Errorf("seed %d: tokens/s %v != best breakdown's %v", seed, got, want)
			}
		}

		st := res.Stats
		if got := st.CellsPrunedMemory + st.CellsInfeasible + st.CellsBounded + st.CellsExpanded; got > st.CellsTotal {
			t.Errorf("seed %d: stats overcount the space: %+v", seed, st)
		}
	}
	if ranked == 0 {
		t.Fatal("no seed produced a feasible serving space")
	}
}

// TestSolveInferenceKVGate pins the feasibility gate end to end: a tight
// device capacity must discard over-ceiling mappings (visible in the stats)
// and steer the optimum toward wider sharding.
func TestSolveInferenceKVGate(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var s audit.InferenceScenario
	// Draw until the space has tensor parallelism to trade against DP.
	for i := 0; i < 100; i++ {
		s = audit.GenerateInference(r)
		if s.System.AccelsPerNode >= 2 && s.Model.Heads%2 == 0 {
			break
		}
	}
	sess, err := model.CompileInference(&s.Model, &s.System, s.Training, s.Eff, s.Inference)
	if err != nil {
		t.Fatal(err)
	}
	opt := InferenceOptions{
		Batch: s.Batch,
		Enumerate: parallel.EnumerateOptions{
			PowerOfTwo:     true,
			ExpertParallel: s.Mapping.ExpertParallel,
		},
	}
	open, err := SolveInference(sess, opt)
	if err != nil {
		t.Fatal(err)
	}
	if open.Stats.CellsPrunedMemory != 0 {
		t.Fatalf("unmodeled memory pruned %d cells", open.Stats.CellsPrunedMemory)
	}

	// Shrink capacity until the gate engages; the search must still agree
	// with the gated brute force (covered by the property test) and report
	// the pruning.
	for _, capacity := range []units.Bytes{1e12, 1e10, 1e8, 1e6} {
		s.System.Accel.Memory = capacity
		res, err := SolveInference(sess, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.CellsPrunedMemory > 0 {
			if res.Best != nil && res.Best.MaxSeqs > 0 &&
				opt.Batch/res.Best.Mapping.DP() > res.Best.MaxSeqs {
				t.Fatalf("optimum violates its own KV ceiling: %+v", res.Best)
			}
			return
		}
	}
	t.Fatal("KV gate never engaged even at 1 MB of device memory")
}

// TestSolveInferenceRefusesMaxVPPAboveLayers checks that the serving
// planner refuses a virtual-pipeline cap above the layer count instead of
// enumerating one variant per chunk count.
func TestSolveInferenceRefusesMaxVPPAboveLayers(t *testing.T) {
	s := audit.GenerateInference(rand.New(rand.NewSource(1)))
	sess, err := model.CompileInference(&s.Model, &s.System, s.Training, s.Eff, s.Inference)
	if err != nil {
		t.Fatal(err)
	}
	opt := InferenceOptions{Batch: s.Batch, Enumerate: parallel.EnumerateOptions{MaxVPP: 100000000}}
	if _, err := SolveInference(sess, opt); err == nil {
		t.Fatal("SolveInference accepted MaxVPP 1e8")
	}
}
