package plan

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"amped/internal/audit"
	"amped/internal/efficiency"
	"amped/internal/explore"
	"amped/internal/hardware"
	"amped/internal/memkit"
	"amped/internal/model"
	"amped/internal/parallel"
	"amped/internal/precision"
	"amped/internal/transformer"
	"amped/internal/units"
)

// bruteRecipe is one cell of the exhaustive recipe search.
type bruteRecipe struct {
	mapping    parallel.Mapping
	nub, zero  int
	ckpt       bool
	step       int
	key        float64
	footprint  units.Bytes
	breakdown  *model.Breakdown
	identifier string
}

// bruteLadder restates the memory ladder, cheapest lever first.
var bruteLadder = []struct {
	zero int
	ckpt bool
}{{0, false}, {1, false}, {0, true}, {1, true}, {2, true}, {3, true}}

// exhaustiveRecipe prices every (mapping, N_ub, ladder step) triple that
// fits memory less 10% with the literal estimator and keeps the minimal
// (expected time, step, identity). It shares no search code with Tune:
// mappings come from parallel.Enumerate, N_ub from a divisor scan, the
// memory rule from the full per-stage breakdown and each time from a fresh
// Estimator. Nil when nothing fits.
func exhaustiveRecipe(t *testing.T, m *transformer.Model, sys *hardware.System, batch, numBatches int, eff efficiency.Model) *bruteRecipe {
	t.Helper()
	var best *bruteRecipe
	mappings := parallel.Enumerate(sys, parallel.EnumerateOptions{PowerOfTwo: true, MaxTP: m.Heads, MaxPP: m.Layers})
	for _, mp := range mappings {
		if batch%mp.DP() != 0 {
			continue
		}
		per := batch / mp.DP()
		for nub := mp.PP(); nub <= per; nub++ {
			if per%nub != 0 {
				continue
			}
			b := parallel.Batch{Global: batch, Microbatches: nub}
			for step, lever := range bruteLadder {
				stages, err := memkit.StageFootprints(m, mp, b, memkit.Config{
					Operands:      precision.Mixed16(),
					Optimizer:     memkit.Adam,
					ZeROStage:     lever.zero,
					Checkpointing: lever.ckpt,
					Schedule:      memkit.OneFOneB,
				})
				if err != nil {
					break
				}
				var worst units.Bytes
				for _, fp := range stages {
					worst = max(worst, fp.Total())
				}
				if float64(worst) > 0.9*float64(sys.Accel.Memory) {
					continue
				}
				overhead, err := model.ZeROOverheadForStage(lever.zero)
				if err != nil {
					t.Fatal(err)
				}
				bd, err := (&model.Estimator{
					Model:   m,
					System:  sys,
					Mapping: mp,
					Training: model.Training{
						Batch:        b,
						NumBatches:   numBatches,
						ZeROOverhead: overhead,
					},
					Eff: eff,
				}).Evaluate()
				if err != nil {
					continue
				}
				c := &bruteRecipe{
					mapping: mp, nub: nub, zero: lever.zero, ckpt: lever.ckpt, step: step,
					key: float64(bd.ExpectedTotalTime()), footprint: worst, breakdown: bd,
					identifier: explore.Point{Mapping: mp, Batch: batch, Microbatches: nub}.String(),
				}
				if best == nil || c.key < best.key ||
					c.key == best.key && (c.step < best.step || c.step == best.step && c.identifier < best.identifier) {
					best = c
				}
			}
		}
	}
	return best
}

// checkRecipe compares Tune with the exhaustive optimum: exact key bits,
// identity, levers, footprint and breakdown.
func checkRecipe(t *testing.T, label string, req TuneRequest) *Recipe {
	t.Helper()
	want := exhaustiveRecipe(t, req.Model, req.System, req.GlobalBatch, req.NumBatches, req.Eff)
	got, err := Tune(req)
	switch {
	case want == nil && err != nil:
		return nil
	case want == nil:
		t.Fatalf("%s: Tune found %v where nothing fits", label, got)
	case err != nil:
		t.Fatalf("%s: Tune: %v; exhaustive optimum %s ZeRO-%d ckpt=%v", label, err, want.identifier, want.zero, want.ckpt)
	}
	id := explore.Point{Mapping: got.Mapping, Batch: req.GlobalBatch, Microbatches: got.Microbatches}.String()
	if key := float64(got.Breakdown.ExpectedTotalTime()); key != want.key || id != want.identifier ||
		got.ZeROStage != want.zero || got.Checkpointing != want.ckpt {
		t.Errorf("%s: Tune = %s ZeRO-%d ckpt=%v at %x s; exhaustive optimum %s ZeRO-%d ckpt=%v at %x s",
			label, id, got.ZeROStage, got.Checkpointing, key, want.identifier, want.zero, want.ckpt, want.key)
	}
	if *got.Breakdown != *want.breakdown {
		t.Errorf("%s: breakdown not byte-identical", label)
	}
	if got.Footprint.Total() != want.footprint {
		t.Errorf("%s: footprint %v, want %v", label, got.Footprint.Total(), want.footprint)
	}
	return got
}

// TestRecipeMatchesExhaustive: Tune is the exact optimum of the recipe
// space on the Case Study I machine (Megatron-530B and GPT-3, where memory
// binds) and on audit-generated scenarios whose device is sized just under
// the unconstrained optimum's lever-free footprint.
func TestRecipeMatchesExhaustive(t *testing.T) {
	cs1 := hardware.CaseStudy1System()
	m530, gpt3 := transformer.Megatron530B(), transformer.GPT3175B()
	r530 := checkRecipe(t, "530B", TuneRequest{Model: &m530, System: &cs1, GlobalBatch: 2520})
	if got := fmt.Sprintf("%.2f", float64(r530.Breakdown.TotalTime())); got != "196.16" {
		t.Errorf("530B recipe %v takes %s s per batch, want 196.16 s", r530, got)
	}
	rg := checkRecipe(t, "GPT-3", TuneRequest{Model: &gpt3, System: &cs1, GlobalBatch: 1536, NumBatches: 100})
	if rg.ZeROStage != 0 || rg.Checkpointing {
		t.Errorf("GPT-3 recipe %v engages levers", rg)
	}

	// Audit spaces whose pipelines cannot fill at any N_ub have no recipe
	// at all; take the first 20 seeds that do.
	checked := 0
	for seed := int64(1); checked < 20; seed++ {
		if seed > 200 {
			t.Fatalf("only %d of 200 audit seeds have a recipe space", checked)
		}
		s := audit.Generate(rand.New(rand.NewSource(seed)))
		req := TuneRequest{Model: &s.Model, System: &s.System, GlobalBatch: s.Training.Batch.Global,
			NumBatches: s.Training.NumBatches, Eff: s.Eff}
		s.System.Accel.Memory = 1 << 60
		free := exhaustiveRecipe(t, req.Model, req.System, req.GlobalBatch, req.NumBatches, req.Eff)
		if free == nil {
			continue
		}
		checked++
		// The budget binds: the unconstrained optimum no longer fits
		// without levers.
		s.System.Accel.Memory = free.footprint * 19 / 20
		checkRecipe(t, fmt.Sprintf("seed %d", seed), req)
	}
}

func TestTuneSmallModelNeedsNoLevers(t *testing.T) {
	// minGPT on an HGX-2: plenty of memory, the fastest mapping should win
	// with no ZeRO or checkpointing engaged.
	m := transformer.MinGPT()
	sys := hardware.HGX2(8)
	recipe, err := Tune(TuneRequest{
		Model:       &m,
		System:      &sys,
		GlobalBatch: 256,
		NumBatches:  100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if recipe.ZeROStage != 0 || recipe.Checkpointing {
		t.Errorf("small model engaged levers: %v", recipe)
	}
	if recipe.Breakdown == nil || recipe.Breakdown.PerBatch() <= 0 {
		t.Fatalf("bad breakdown in %v", recipe)
	}
	if !strings.Contains(recipe.String(), "N_ub=") {
		t.Errorf("String() = %q", recipe.String())
	}
}

func TestTuneLargeModelEngagesLevers(t *testing.T) {
	// Megatron 530B on 1024 A100s at batch 2520: no mapping fits without
	// memory levers (even TP8xPP64 leaves ~1 GB params but hundreds of GB
	// of activations), so the recipe must engage checkpointing.
	m := transformer.Megatron530B()
	sys := hardware.CaseStudy1System()
	recipe, err := Tune(TuneRequest{
		Model:       &m,
		System:      &sys,
		GlobalBatch: 2520,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !recipe.Checkpointing && recipe.ZeROStage == 0 {
		t.Errorf("530B recipe engaged no levers: %v", recipe)
	}
	// The recipe is genuinely feasible: re-check the worst stage.
	cfg := memkit.Config{
		Operands:      precision.Mixed16(),
		Optimizer:     memkit.Adam,
		ZeROStage:     recipe.ZeROStage,
		Checkpointing: recipe.Checkpointing,
		Schedule:      memkit.OneFOneB,
	}
	stages, err := memkit.StageFootprints(&m, recipe.Mapping,
		parallel.Batch{Global: 2520, Microbatches: recipe.Microbatches}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	usable := float64(sys.Accel.Memory) * 0.9
	for i, fp := range stages {
		if float64(fp.Total()) > usable {
			t.Errorf("stage %d does not fit: %v", i, fp)
		}
	}
	// ZeRO-3 recipes must carry the Eq. 5 overhead in the reported time.
	if recipe.ZeROStage == 3 && recipe.Breakdown.ZeROComm == 0 {
		t.Error("ZeRO-3 recipe reports no ZeRO communication")
	}
}

// TestTuneZeRO3ReportsZeROComm: on a device sized between the smallest
// ZeRO-3 + ckpt footprint and the smallest ZeRO-2 + ckpt one of any cell,
// only ZeRO-3 cells fit, so the recipe engages it and its time carries the
// Eq. 5 communication.
func TestTuneZeRO3ReportsZeROComm(t *testing.T) {
	m := transformer.Megatron530B()
	sys := hardware.CaseStudy1System()
	const batch = 2520
	min2, min3 := units.Bytes(math.Inf(1)), units.Bytes(math.Inf(1))
	for _, mp := range parallel.Enumerate(&sys, parallel.EnumerateOptions{PowerOfTwo: true, MaxTP: m.Heads, MaxPP: m.Layers}) {
		if batch%mp.DP() != 0 {
			continue
		}
		per := batch / mp.DP()
		for nub := mp.PP(); nub <= per; nub++ {
			if per%nub != 0 {
				continue
			}
			b := parallel.Batch{Global: batch, Microbatches: nub}
			cfg := memkit.Config{Operands: precision.Mixed16(), Optimizer: memkit.Adam,
				ZeROStage: 2, Checkpointing: true, Schedule: memkit.OneFOneB}
			z2, err := memkit.WorstStage(&m, mp, b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.ZeROStage = 3
			z3, err := memkit.WorstStage(&m, mp, b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			min2, min3 = min(min2, z2.Total()), min(min3, z3.Total())
		}
	}
	if min3 >= min2 {
		t.Fatalf("ZeRO-3 saves nothing: %v against %v", min3, min2)
	}
	sys.Accel.Memory = (min2 + min3) / 2 / 0.9
	recipe := checkRecipe(t, "530B ZeRO-3", TuneRequest{Model: &m, System: &sys, GlobalBatch: batch})
	if recipe.ZeROStage != 3 {
		t.Fatalf("recipe %v does not engage ZeRO-3", recipe)
	}
	if recipe.Breakdown.ZeROComm == 0 {
		t.Error("ZeRO-3 recipe reports no ZeRO communication")
	}
}

func TestTuneRespectsSpeedRanking(t *testing.T) {
	// For the 145B model the known-best mapping family (TP intra + DP
	// inter) should surface as long as it fits with cheap levers.
	m := transformer.Megatron145B()
	sys := hardware.CaseStudy1System()
	recipe, err := Tune(TuneRequest{
		Model:       &m,
		System:      &sys,
		GlobalBatch: 8192,
		NumBatches:  17880,
	})
	if err != nil {
		t.Fatal(err)
	}
	if recipe.Mapping.TPIntra < 2 {
		t.Errorf("recipe %v does not use intra-node TP", recipe)
	}
	days := recipe.Breakdown.TotalTime().Days()
	if days < 10 || days > 60 {
		t.Errorf("recipe time %v days outside the plausible band", days)
	}
}

func TestTuneErrors(t *testing.T) {
	m := transformer.MinGPT()
	sys := hardware.HGX2(8)
	if _, err := Tune(TuneRequest{Model: &m, System: &sys}); err == nil {
		t.Error("zero batch accepted")
	}
	broken := m
	broken.Layers = 0
	if _, err := Tune(TuneRequest{Model: &broken, System: &sys, GlobalBatch: 8}); err == nil {
		t.Error("broken model accepted")
	}
	var nilReq *TuneRequest
	if err := nilReq.validate(); err == nil {
		t.Error("nil request accepted")
	}
	// Nothing fits: a 175B model on a single 16 GB P100.
	huge := transformer.GPT3175B()
	tiny := hardware.P100Cluster(2)
	if _, err := Tune(TuneRequest{Model: &huge, System: &tiny, GlobalBatch: 2}); err == nil {
		t.Error("impossible problem produced a recipe")
	}
}
