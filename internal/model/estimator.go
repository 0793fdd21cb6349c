package model

import (
	"errors"
	"math"
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
	return checkFit(e.Model, e.Mapping)
}

// Evaluate runs the analytical model and returns the per-batch breakdown.
// It is a thin wrapper over a one-shot compiled Session; sweeps that
// evaluate many points of the same scenario should Compile once and call
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

// finite reports whether every duration in a breakdown's components is a
// finite number.
func finite(cs []Component) bool {
	for _, c := range cs {
		if math.IsInf(float64(c.Time), 0) || math.IsNaN(float64(c.Time)) {
			return false
		}
	}
	return true
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
