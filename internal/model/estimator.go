package model

import (
	"errors"

	"amped/internal/units"
)

// Validate checks the estimator's inputs for structural and mutual
// consistency: the mapping tiles the system, the batch divides the mapping,
// and the model splits the way the mapping asks (checkFit).
func (e *Estimator) Validate() error {
	if e == nil {
		return errors.New("model: nil estimator")
	}
	if err := e.Model.Validate(); err != nil {
		return err
	}
	if err := e.System.Validate(); err != nil {
		return err
	}
	if err := e.Mapping.Validate(e.System); err != nil {
		return err
	}
	if err := e.Training.Validate(); err != nil {
		return err
	}
	if err := e.Training.Batch.Validate(e.Mapping); err != nil {
		return err
	}
	mpn := e.Mapping.Normalized()
	return checkFit(e.Model, mpn.TP(), mpn.PP(), mpn.CP(), mpn.VPP)
}

// Evaluate runs the analytical model and returns the per-batch breakdown.
// It is the one-shot path: every call compiles a fresh Session, prices one
// point and discards the session, so each call pays a full compile on top
// of the point. Nothing is cached between calls. Callers that evaluate
// many points of one scenario should Compile once and call
// Session.EvaluatePoint instead.
func (e *Estimator) Evaluate() (*Breakdown, error) {
	// Validate up front so error reporting keeps the legacy precedence
	// (mapping errors before training errors); Compile only re-checks the
	// scenario-invariant parts.
	if err := e.Validate(); err != nil {
		return nil, err
	}
	s, err := Compile(e.Model, e.System, e.Training, e.Eff)
	if err != nil {
		return nil, err
	}
	return s.Evaluate(e.Mapping, e.Training.Batch.Global, e.Training.Batch.Microbatches)
}

// finite reports whether every duration is a finite number. t − t is 0
// for a finite t and NaN for ±Inf and NaN, so the sum of the differences
// is 0 exactly when every t is finite.
func finite(ts ...units.Seconds) bool {
	var z units.Seconds
	for _, t := range ts {
		z += t - t
	}
	return z == 0
}

// MustEvaluate is Evaluate for callers that have already validated inputs
// (exploration sweeps); it panics on error.
func (e *Estimator) MustEvaluate() *Breakdown {
	b, err := e.Evaluate()
	if err != nil {
		panic(err)
	}
	return b
}
