// Package audit is the differential + metamorphic correctness harness for
// AMPeD's Eq. 1–12 evaluators. PR 1 split the model into a compiled fast
// path (model.Session) and a test-only golden reference, leaving correctness
// resting on one equivalence test; this package adds a continuously
// cross-checked third opinion and a set of physical invariants:
//
//   - Literal: an independently re-derived evaluator that transcribes the
//     paper's equations naively (per-layer, per-sublayer loops, no hoisting,
//     its own topology/precision/bandwidth derivations).
//   - Generate: randomized scenario generation (models, systems, mappings,
//     batches, precisions, topologies, MoE on/off) that is always valid by
//     construction and reproducible from a seed.
//   - Check: four-way differential comparison — Session.EvaluatePoint vs
//     Estimator.Evaluate vs Session.EvaluateBatch vs Literal — at a
//     configurable relative tolerance (the first three must be
//     bit-identical; only the literal gets tolerance), the sweep row path's
//     rank key and its column's compute floor (floor ≤ key, which the
//     top-n cut relies on), plus the metamorphic invariant suite of
//     metamorphic.go.
//   - Run: the batch driver behind cmd/amped-audit and `make audit`.
package audit

import (
	"fmt"
	"math"
	"math/rand"

	"amped/internal/efficiency"
	"amped/internal/hardware"
	"amped/internal/model"
	"amped/internal/parallel"
	"amped/internal/transformer"
)

// Scenario is one complete randomized design point: everything the three
// evaluators need to produce a Breakdown.
type Scenario struct {
	// Model is the transformer architecture.
	Model transformer.Model
	// System is the machine.
	System hardware.System
	// Mapping is the parallelism configuration.
	Mapping parallel.Mapping
	// Training carries the recipe including the batch schedule.
	Training model.Training
	// Eff is the efficiency model (nil = efficiency.Default).
	Eff efficiency.Model
}

// Estimator assembles the legacy evaluator for the scenario.
func (sc *Scenario) Estimator() *model.Estimator {
	return &model.Estimator{
		Model:    &sc.Model,
		System:   &sc.System,
		Mapping:  sc.Mapping,
		Training: sc.Training,
		Eff:      sc.Eff,
	}
}

// String identifies the scenario compactly for failure reports.
func (sc *Scenario) String() string {
	return fmt.Sprintf("%s | %dx%d accel | %v | B=%d m=%d | %+v",
		sc.Model.String(), sc.System.Nodes, sc.System.AccelsPerNode,
		sc.Mapping, sc.Training.Batch.Global, sc.Training.Batch.Microbatches,
		struct {
			R, ZeRO, Bf, Bc, Ov, GOv float64
			Emb, Roof                bool
		}{sc.Training.BubbleRatio, sc.Training.ZeROOverhead,
			sc.Training.BackwardComputeFactor, sc.Training.BackwardCommFactor,
			sc.Training.CommOverlap, sc.Training.GradOverlap,
			sc.Training.IncludeEmbedding, sc.Training.Roofline})
}

// Check runs the four-way differential comparison and the metamorphic
// invariants on one scenario. It returns the list of problems found (empty
// when the scenario passes) and whether the scenario was numerically
// evaluated (false when every evaluator agreed the point is degenerate).
func Check(sc *Scenario, tol float64) (problems []string, evaluated bool) {
	est := sc.Estimator()
	bdE, errE := est.Evaluate()

	sess, errC := model.Compile(&sc.Model, &sc.System, sc.Training, sc.Eff)
	var bdS *model.Breakdown
	var errS error
	if errC != nil {
		errS = errC
	} else {
		bdS, errS = sess.Evaluate(sc.Mapping, sc.Training.Batch.Global, sc.Training.Batch.Microbatches)
		// Fourth way: the SoA batch engine must reproduce the scalar path
		// exactly, on degenerate points (same error) as well as good ones
		// (bit-identical breakdown).
		problems = append(problems, batchDiff(sess, sc, bdS, errS)...)
	}

	if errE != nil || errS != nil {
		// Degenerate point: both production evaluators must agree it is.
		if (errE == nil) != (errS == nil) {
			problems = append(problems, fmt.Sprintf(
				"error disagreement: Estimator.Evaluate=%v, Session.Evaluate=%v", errE, errS))
		}
		return problems, false
	}

	// The facade is a thin wrapper over the session: bit-identical, not
	// merely close.
	if *bdE != *bdS {
		problems = append(problems, "Estimator.Evaluate diverged bit-wise from Session.Evaluate")
	}
	problems = append(problems, floorDiff(sess, sc, bdS)...)

	bdL, errL := Literal(sc)
	if errL != nil {
		problems = append(problems, fmt.Sprintf("literal oracle failed on an accepted scenario: %v", errL))
		return problems, true
	}
	problems = append(problems, diffBreakdowns("session vs literal", bdS, bdL, tol)...)
	problems = append(problems, invariants(sc, bdS, tol)...)
	return problems, true
}

// batchDiff runs the scenario's cell through Session.EvaluateBatch and
// verifies the SoA engine is indistinguishable from the scalar result:
// identical error on degenerate points, bit-identical Breakdown otherwise.
// No tolerance — the batch engine hoists loop-invariant terms but must
// preserve the exact arithmetic.
func batchDiff(sess *model.Session, sc *Scenario, bdS *model.Breakdown, errS error) []string {
	in := model.BatchInput{
		Mappings:     []parallel.Mapping{sc.Mapping},
		Batches:      []int{sc.Training.Batch.Global},
		Microbatches: []int{sc.Training.Batch.Microbatches},
	}
	var out model.BatchOutput
	if err := sess.EvaluateBatch(in, &out); err != nil {
		return []string{fmt.Sprintf("EvaluateBatch rejected well-formed columns: %v", err)}
	}
	if errS != nil {
		switch {
		case out.Errs[0] == nil:
			return []string{fmt.Sprintf(
				"EvaluateBatch accepted a point Session.Evaluate rejected (%v)", errS)}
		case out.Errs[0].Error() != errS.Error():
			return []string{fmt.Sprintf(
				"EvaluateBatch error %q != scalar error %q", out.Errs[0], errS)}
		}
		return nil
	}
	if out.Errs[0] != nil {
		return []string{fmt.Sprintf("EvaluateBatch rejected a good point: %v", out.Errs[0])}
	}
	if out.Breakdowns[0] != *bdS {
		return []string{"EvaluateBatch breakdown diverged bit-wise from Session.Evaluate"}
	}
	return nil
}

// floorDiff prices the scenario's good cell on the sweep row path, under
// no limit, and checks its rank key is the scalar result's
// ExpectedTotalTime, bit for bit, and that its column's compute floor is
// at most that key: Space.Top cuts a cell whose floor is above its n-th
// best key, which is exact only while no key is below its floor.
func floorDiff(sess *model.Session, sc *Scenario, bdS *model.Breakdown) []string {
	var row model.Row
	var col model.Column
	var bd model.Breakdown
	sess.PrepareRow(&row, &sc.Mapping)
	a := sess.Aggregates([]int{sc.Training.Batch.Global})
	key, cut, err := sess.PriceRowCell(&row, &col, a, 0, sc.Training.Batch.Microbatches, math.Inf(1), &bd)
	switch want := float64(bdS.ExpectedTotalTime()); {
	case err != nil || cut:
		return []string{fmt.Sprintf("PriceRowCell rejected a good point under no limit: cut %v, %v", cut, err)}
	case math.Float64bits(key) != math.Float64bits(want):
		return []string{fmt.Sprintf("PriceRowCell rank key %.17g != ExpectedTotalTime %.17g", key, want)}
	case !(col.Floor() <= key):
		return []string{fmt.Sprintf("column compute floor %.17g above the rank key %.17g", col.Floor(), key)}
	}
	return nil
}

// diffBreakdowns compares every component and metadata field of two
// breakdowns at the given relative tolerance, returning one message per
// mismatching field.
func diffBreakdowns(label string, a, b *model.Breakdown, tol float64) []string {
	var out []string
	ac, bc := a.Components(), b.Components()
	for i := range ac {
		if !relClose(float64(ac[i].Time), float64(bc[i].Time), tol) {
			out = append(out, fmt.Sprintf("%s: %s = %.17g vs %.17g (rel err %.3g)",
				label, ac[i].Name, float64(ac[i].Time), float64(bc[i].Time),
				relErr(float64(ac[i].Time), float64(bc[i].Time))))
		}
	}
	scalars := []struct {
		name string
		x, y float64
	}{
		{"Microbatch", a.Microbatch, b.Microbatch},
		{"Efficiency", a.Efficiency, b.Efficiency},
		{"ModelFLOPs", float64(a.ModelFLOPs), float64(b.ModelFLOPs)},
	}
	for _, s := range scalars {
		if !relClose(s.x, s.y, tol) {
			out = append(out, fmt.Sprintf("%s: %s = %.17g vs %.17g", label, s.name, s.x, s.y))
		}
	}
	if a.Workers != b.Workers || a.NumBatches != b.NumBatches {
		out = append(out, fmt.Sprintf("%s: metadata workers %d/%d batches %d/%d",
			label, a.Workers, b.Workers, a.NumBatches, b.NumBatches))
	}
	return out
}

// relClose reports whether two floats agree to the relative tolerance
// (exact equality short-circuits, covering the both-zero case).
func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return relErr(a, b) <= tol
}

func relErr(a, b float64) float64 {
	denom := math.Max(math.Abs(a), math.Abs(b))
	if denom == 0 {
		return 0
	}
	return math.Abs(a-b) / denom
}

// Config parameterizes a harness run.
type Config struct {
	// Scenarios is the number of randomized scenarios to audit.
	Scenarios int
	// Seed is the base seed; scenario i uses seed Seed+i, so a failure
	// reproduces from its own seed alone.
	Seed int64
	// Tol is the relative tolerance for the differential comparison
	// (cmd/amped-audit defaults to 1e-9).
	Tol float64
}

// Failure is one scenario the harness flagged.
type Failure struct {
	// Seed reproduces the scenario via Generate(rand.New(rand.NewSource(Seed))).
	Seed int64
	// Scenario is the human-readable identity.
	Scenario string
	// Problems lists every check that failed.
	Problems []string
}

// Report summarizes a harness run.
type Report struct {
	// Scenarios is the number generated.
	Scenarios int
	// Evaluated counts scenarios that produced a numeric breakdown.
	Evaluated int
	// Degenerate counts scenarios every evaluator rejected (consistently).
	Degenerate int
	// Failures lists the scenarios with at least one problem.
	Failures []Failure
}

// OK reports whether the run found no problems.
func (r *Report) OK() bool { return len(r.Failures) == 0 }

// Run generates and checks cfg.Scenarios scenarios.
func Run(cfg Config) Report {
	rep := Report{Scenarios: cfg.Scenarios}
	for i := 0; i < cfg.Scenarios; i++ {
		seed := cfg.Seed + int64(i)
		sc := Generate(rand.New(rand.NewSource(seed)))
		problems, evaluated := Check(&sc, cfg.Tol)
		if evaluated {
			rep.Evaluated++
		} else {
			rep.Degenerate++
		}
		if len(problems) > 0 {
			rep.Failures = append(rep.Failures, Failure{
				Seed: seed, Scenario: sc.String(), Problems: problems,
			})
		}
	}
	return rep
}
