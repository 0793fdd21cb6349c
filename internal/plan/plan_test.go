package plan

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"amped/internal/audit"
	"amped/internal/explore"
	"amped/internal/hardware"
	"amped/internal/memkit"
	"amped/internal/model"
	"amped/internal/parallel"
	"amped/internal/pipesim"
	"amped/internal/precision"
	"amped/internal/transformer"
	"amped/internal/units"
)

// sweepFront reproduces the exhaustive ranking front — the first element of
// SortByTime over the full sweep: the bucket-0 cell (evaluated and fitting)
// with the minimal (rank_s, identity) pair, or nil when none exists.
func sweepFront(points []explore.Point) (*explore.Point, float64) {
	var best *explore.Point
	var bestRank float64
	for i := range points {
		p := &points[i]
		if p.Err != nil || !p.Fits || p.Breakdown == nil {
			continue
		}
		rank := float64(p.Breakdown.ExpectedTotalTime())
		if best == nil || rank < bestRank ||
			(rank == bestRank && p.String() < best.String()) {
			best, bestRank = p, rank
		}
	}
	return best, bestRank
}

// TestSolveMatchesExhaustive is the solver-vs-exhaustive equivalence
// property test: on every small randomized space from the audit generator,
// Solve returns the identical optimum — exact rank_s float64 bits, cell
// identity and breakdown — as the full sweep, over the whole space and over
// one interior CursorLo/CursorHi shard range. Every third seed additionally
// enables the memory model.
func TestSolveMatchesExhaustive(t *testing.T) {
	const seeds = 60
	for seed := int64(1); seed <= seeds; seed++ {
		s := audit.Generate(rand.New(rand.NewSource(seed)))
		sc := explore.Scenario{
			Model:    &s.Model,
			System:   &s.System,
			Training: s.Training,
			Eff:      s.Eff,
		}
		opt := explore.Options{
			Batches: []int{s.Training.Batch.Global, 2 * s.Training.Batch.Global},
			Enumerate: parallel.EnumerateOptions{
				PowerOfTwo:     true,
				ExpertParallel: s.Mapping.ExpertParallel,
			},
			MicrobatchTarget: 32,
			KeepInvalid:      true,
		}
		withMemory := seed%3 == 0
		if withMemory {
			// The generator leaves Accel.Memory zero; give the device a
			// seed-dependent capacity so the spaces split between mostly
			// fitting, mixed and hopeless.
			caps := []units.Bytes{2e9, 2e10, 8e10}
			s.System.Accel.Memory = caps[int(seed)%len(caps)]
			sc.Memory = &memkit.Config{
				Operands:  s.Training.Operands,
				Optimizer: memkit.Adam,
				ZeROStage: int(seed) % 4,
				Schedule:  memkit.OneFOneB,
			}
			sc.MemoryReserve = 0.1
		}

		res, err := Solve(sc, opt)
		if err != nil {
			t.Fatalf("seed %d: Solve: %v", seed, err)
		}
		points, err := explore.Sweep(sc, opt)
		if err != nil {
			t.Fatalf("seed %d: Sweep: %v", seed, err)
		}
		want, wantRank := sweepFront(points)

		switch {
		case want == nil && res.Best == nil:
			// Consistently infeasible space.
		case want == nil || res.Best == nil:
			t.Fatalf("seed %d: feasibility disagreement: sweep front %v, solver best %v",
				seed, want, res.Best)
		default:
			if res.RankSeconds != wantRank {
				t.Errorf("seed %d: rank_s diverged: solver %x, sweep %x",
					seed, res.RankSeconds, wantRank)
			}
			if res.Best.String() != want.String() {
				t.Errorf("seed %d: optimum diverged: solver %q, sweep %q",
					seed, res.Best.String(), want.String())
			}
			if res.Best.Breakdown == nil || *res.Best.Breakdown != *want.Breakdown {
				t.Errorf("seed %d: optimum breakdown not byte-identical", seed)
			}
		}

		st := res.Stats
		if got := st.CellsPrunedMemory + st.CellsInfeasible + st.CellsBounded + st.CellsExpanded; got > st.CellsTotal {
			t.Errorf("seed %d: stats overcount the space: %+v", seed, st)
		}
		// One interior shard range: Solve honours CursorLo/CursorHi exactly
		// as the sweep does.
		space, err := explore.NewSpace(sc, opt)
		if err != nil {
			t.Fatalf("seed %d: NewSpace: %v", seed, err)
		}
		shard := opt
		shard.CursorLo = space.Cells() / 4
		shard.CursorHi = max(shard.CursorLo+1, 3*space.Cells()/4)
		sres, err := Solve(sc, shard)
		if err != nil {
			t.Fatalf("seed %d: Solve [%d, %d): %v", seed, shard.CursorLo, shard.CursorHi, err)
		}
		spoints, err := explore.Sweep(sc, shard)
		if err != nil {
			t.Fatalf("seed %d: Sweep [%d, %d): %v", seed, shard.CursorLo, shard.CursorHi, err)
		}
		swant, swantRank := sweepFront(spoints)
		switch {
		case swant == nil && sres.Best == nil:
		case swant == nil || sres.Best == nil:
			t.Fatalf("seed %d [%d, %d): feasibility disagreement: sweep front %v, solver best %v",
				seed, shard.CursorLo, shard.CursorHi, swant, sres.Best)
		default:
			if sres.RankSeconds != swantRank || sres.Best.String() != swant.String() ||
				*sres.Best.Breakdown != *swant.Breakdown {
				t.Errorf("seed %d [%d, %d): optimum diverged: solver %q (%x), sweep %q (%x)",
					seed, shard.CursorLo, shard.CursorHi, sres.Best, sres.RankSeconds, swant, swantRank)
			}
		}
		if got := sres.Stats.CellsTotal; got != shard.CursorHi-shard.CursorLo {
			t.Errorf("seed %d: shard stats cover %d cells, range holds %d", seed, got, shard.CursorHi-shard.CursorLo)
		}
	}
}

// auditSpace is one small audit-generated space over a single batch.
func auditSpace(seed int64) (explore.Scenario, explore.Options) {
	s := audit.Generate(rand.New(rand.NewSource(seed)))
	sc := explore.Scenario{Model: &s.Model, System: &s.System, Training: s.Training, Eff: s.Eff}
	opt := explore.Options{
		Batches:   []int{s.Training.Batch.Global},
		Enumerate: parallel.EnumerateOptions{PowerOfTwo: true, ExpertParallel: s.Mapping.ExpertParallel},
	}
	return sc, opt
}

// TestSolveContextCancelled: a cancelled context returns its error and no
// result — a partial search is not an optimum.
func TestSolveContextCancelled(t *testing.T) {
	sc, opt := auditSpace(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := SolveContext(ctx, sc, opt); res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveContext(cancelled) = %+v, %v; want nil, context.Canceled", res, err)
	}
	if _, err := SolveContext(context.Background(), sc, opt); err != nil {
		t.Fatalf("SolveContext: %v", err)
	}
}

// TestSolveNothingFits: when the memory model rejects every cell, the
// sweep's ranking front is a !Fits cell, and Solve must report no optimum.
func TestSolveNothingFits(t *testing.T) {
	sc, opt := auditSpace(3)
	sc.System.Accel.Memory = 1
	sc.Memory = &memkit.Config{Operands: sc.Training.Operands, Optimizer: memkit.Adam}
	res, err := Solve(sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != nil {
		t.Fatalf("Solve returned %v although no cell fits", res.Best)
	}
	if res.Stats.CellsExpanded == 0 {
		t.Fatal("no cell was priced; the space is vacuous")
	}
}

// TestSolveSPCPMemoryEquivalence is the regression case for the activation
// accounting bug: before memkit sharded activations by sequence/context
// parallelism, every cp > 1 cell carried the same footprint as its cp = 1
// sibling, so a memory budget sized between the two marked the whole space
// infeasible and the planner (whose feasibility filter is the same
// estimate) agreed on the wrong answer. The scenario is attention-heavy
// (2·a·s ≈ 4 × 16·h per token) with the device capacity set strictly
// between the cp = 2 and cp = 1 working sets: under the corrected
// accounting only context-parallel cells fit, and the planner must land
// on the identical optimum as the exhaustive sweep —
// exact rank bits, identity and breakdown.
func TestSolveSPCPMemoryEquivalence(t *testing.T) {
	m := transformer.Model{
		Name:     "spcp-test",
		Layers:   8,
		Heads:    8,
		Hidden:   512,
		SeqLen:   2048,
		Vocab:    1000,
		FFNRatio: 4,
	}
	sys := hardware.System{
		Name: "spcp-sys", Accel: hardware.NvidiaA100(),
		Nodes: 2, AccelsPerNode: 4,
		Intra:       hardware.NVLinkA100(),
		Inter:       hardware.InfinibandHDR(),
		NICsPerNode: 4,
	}
	// Under GPipe every non-CP cell holds the full 16-sequence batch's
	// activations (~2.7 GB); cp = 2 shrinks the score matrices
	// quadratically (~1.6 GB). 2.2 GB splits the two populations.
	sys.Accel.Memory = 2.2e9
	mem := &memkit.Config{Operands: precision.Mixed16(), Optimizer: memkit.Adam}
	sc := explore.Scenario{
		Model:    &m,
		System:   &sys,
		Training: model.Training{NumBatches: 10},
		Memory:   mem,
	}
	opt := explore.Options{
		Batches: []int{16},
		Enumerate: parallel.EnumerateOptions{
			PowerOfTwo:       true,
			MaxCP:            2,
			MaxVPP:           2,
			SequenceParallel: true,
		},
		MicrobatchTarget: 4,
		KeepInvalid:      true,
	}

	res, err := Solve(sc, opt)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	points, err := explore.Sweep(sc, opt)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	want, wantRank := sweepFront(points)
	if want == nil || res.Best == nil {
		t.Fatalf("space unexpectedly infeasible: sweep front %v, solver best %v", want, res.Best)
	}
	if res.RankSeconds != wantRank {
		t.Errorf("rank_s diverged: solver %x, sweep %x", res.RankSeconds, wantRank)
	}
	if res.Best.String() != want.String() {
		t.Errorf("optimum diverged: solver %q, sweep %q", res.Best.String(), want.String())
	}
	if res.Best.Breakdown == nil || *res.Best.Breakdown != *want.Breakdown {
		t.Error("optimum breakdown not byte-identical")
	}

	// The optimum only exists because the accounting shards by cp: every
	// cp = 1 cell in the space exceeds the device, so a regression back to
	// the unsharded formula empties the feasible set.
	if res.Best.Mapping.CP() <= 1 {
		t.Fatalf("optimum %v does not engage context parallelism", res.Best)
	}
	var sawUnsharded bool
	for i := range points {
		p := &points[i]
		if p.Err != nil || p.Mapping.CP() > 1 {
			continue
		}
		sawUnsharded = true
		if p.Fits {
			t.Fatalf("cp=1 cell %v fits in %v — the budget no longer separates the populations", p, p.Footprint)
		}
	}
	if !sawUnsharded {
		t.Fatal("space contains no cp=1 cells to contrast against")
	}

	// Sequence parallelism is load-bearing the same way: the SP-off twin
	// of the optimum carries the replicated norm tensors.
	spOff := res.Best.Mapping
	spOff.SequenceParallel = false
	b := parallel.Batch{Global: res.Best.Batch, Microbatches: res.Best.Microbatches}
	got, err := memkit.Estimate(&m, res.Best.Mapping, b, *mem)
	if err != nil {
		t.Fatal(err)
	}
	off, err := memkit.Estimate(&m, spOff, b, *mem)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Mapping.TP() > 1 && off.Activations <= got.Activations {
		t.Errorf("SP-off footprint %v not above SP-on %v", off.Activations, got.Activations)
	}
	t.Logf("optimum %v, footprint %v, priced %d of %d cells",
		res.Best, res.Best.Footprint, res.Stats.CellsExpanded, res.Stats.CellsTotal)
}

// heteroTestModel is a small architecture the heterogeneous space stays
// tractable on.
func heteroTestModel() transformer.Model {
	return transformer.Model{
		Name:     "hetero-test",
		Layers:   12,
		Heads:    8,
		Hidden:   512,
		SeqLen:   128,
		Vocab:    1000,
		FFNRatio: 4,
	}
}

// TestSolveHeteroMatchesExhaustive cross-checks the heterogeneous
// branch-and-bound against full enumeration, including the acceptance
// criterion's mixed A100+H100 fleet, asserting the identical optimum (exact
// value bits and identity) and the aggregate ≤20% expansion bar.
func TestSolveHeteroMatchesExhaustive(t *testing.T) {
	m := heteroTestModel()
	link := hardware.Link{Name: "test-ic", Latency: 5e-6, Bandwidth: 1e11}
	cases := []struct {
		name string
		sp   HeteroSpace
	}{
		{
			name: "mixed-a100-h100",
			sp: HeteroSpace{
				Model: &m,
				Pools: []Pool{
					{Name: "a100", Accel: hardware.NvidiaA100(), Count: 8},
					{Name: "h100", Accel: hardware.NvidiaH100(), Count: 8},
				},
				Interconnect:     link,
				Batches:          []int{8, 16},
				MicrobatchTarget: 4,
				NumBatches:       10,
				Schedule:         pipesim.OneFOneB,
			},
		},
		{
			name: "mixed-uneven-pools",
			sp: HeteroSpace{
				Model: &m,
				Pools: []Pool{
					{Name: "h100", Accel: hardware.NvidiaH100(), Count: 4},
					{Name: "a100", Accel: hardware.NvidiaA100(), Count: 12},
				},
				Interconnect:     link,
				Batches:          []int{12},
				MicrobatchTarget: 2,
				Schedule:         pipesim.OneFOneB,
			},
		},
		{
			name: "homogeneous-pool-gpipe",
			sp: HeteroSpace{
				Model: &m,
				Pools: []Pool{
					{Name: "a100", Accel: hardware.NvidiaA100(), Count: 16},
				},
				Interconnect:     link,
				Batches:          []int{8, 32},
				MicrobatchTarget: 4,
				Schedule:         pipesim.GPipe,
			},
		},
	}
	var aggTotal, aggExpanded int64
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := SolveHetero(tc.sp)
			if err != nil {
				t.Fatalf("SolveHetero: %v", err)
			}
			want, cells, err := ExhaustiveHetero(tc.sp)
			if err != nil {
				t.Fatalf("ExhaustiveHetero: %v", err)
			}
			if int64(len(cells)) != res.Stats.CellsTotal {
				t.Errorf("cell enumeration diverged: solver %d, exhaustive %d",
					res.Stats.CellsTotal, len(cells))
			}
			switch {
			case want == nil && res.Best == nil:
			case want == nil || res.Best == nil:
				t.Fatalf("feasibility disagreement: exhaustive %v, solver %v", want, res.Best)
			default:
				if res.Best.Value != want.Value {
					t.Errorf("value diverged: solver %x, exhaustive %x", res.Best.Value, want.Value)
				}
				if res.Best.ID != want.ID {
					t.Errorf("optimum diverged: solver %q, exhaustive %q", res.Best.ID, want.ID)
				}
			}
			aggTotal += res.Stats.CellsTotal
			aggExpanded += res.Stats.CellsExpanded
			t.Logf("expanded %d of %d cells", res.Stats.CellsExpanded, res.Stats.CellsTotal)
		})
	}
	if aggTotal == 0 {
		t.Fatal("empty heterogeneous spaces")
	}
	if frac := float64(aggExpanded) / float64(aggTotal); frac > 0.20 {
		t.Errorf("aggregate hetero expansion %.1f%% exceeds the 20%% bar (%d of %d cells)",
			100*frac, aggExpanded, aggTotal)
	}
}

// TestSolveHeteroRandomized fuzzes the equivalence over randomized mixed
// fleets: pool sizes, batches and schedules drawn from a seeded RNG, every
// space checked for the identical optimum.
func TestSolveHeteroRandomized(t *testing.T) {
	m := heteroTestModel()
	link := hardware.Link{Name: "test-ic", Latency: 2e-6, Bandwidth: 4e11}
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		sp := HeteroSpace{
			Model: &m,
			Pools: []Pool{
				{Name: "a100", Accel: hardware.NvidiaA100(), Count: 1 + r.Intn(12)},
				{Name: "h100", Accel: hardware.NvidiaH100(), Count: 1 + r.Intn(12)},
			},
			Interconnect:     link,
			Batches:          []int{1 << (1 + r.Intn(4))},
			MicrobatchTarget: 1 << r.Intn(3),
			NumBatches:       1 + r.Intn(5),
			Schedule:         pipesim.Schedule(r.Intn(2)),
		}
		res, err := SolveHetero(sp)
		if err != nil {
			t.Fatalf("seed %d: SolveHetero: %v", seed, err)
		}
		want, _, err := ExhaustiveHetero(sp)
		if err != nil {
			t.Fatalf("seed %d: ExhaustiveHetero: %v", seed, err)
		}
		switch {
		case want == nil && res.Best == nil:
		case want == nil || res.Best == nil:
			t.Fatalf("seed %d: feasibility disagreement: exhaustive %v, solver %v",
				seed, want, res.Best)
		default:
			if res.Best.Value != want.Value || res.Best.ID != want.ID {
				t.Errorf("seed %d: optimum diverged: solver (%x, %q) vs exhaustive (%x, %q)",
					seed, res.Best.Value, res.Best.ID, want.Value, want.ID)
			}
		}
	}
}
