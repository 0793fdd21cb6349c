// Package efficiency models microbatch efficiency eff(ub): the fraction of
// an accelerator's peak MAC throughput achieved at a given microbatch size.
//
// The paper derates peak compute by eff(ub) in Eq. 3 and reports that the
// empirical form a·ub/(b+ub) fits measured data well up to a critical
// microbatch size, with a and b depending on the application and system.
// Case Study I additionally clamps the efficiency to a 25% floor and calls
// the resulting kink in the training-time curves an artifact of that choice
// — the floor is therefore an explicit knob here.
package efficiency

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Model maps a microbatch size to a utilization fraction in (0, 1].
//
// Eff must be a pure function of ub: the same ub always yields the same
// value, with no effect the caller depends on. A sweep calls it once per
// batch position and run of a degree group (consecutive mappings of equal
// DP, PP, TP, CP and sequence parallelism) that one of its workers walks,
// and reuses the value for every other mapping of the run, so neither the
// number nor the order of calls follows the cells. A model that panics on
// some ub still fails exactly the cells at that ub, each with its own
// error.
type Model interface {
	// Eff returns the achieved fraction of peak throughput for microbatch
	// size ub (in sequences; fractional values arise from uneven splits).
	Eff(ub float64) float64
}

// Saturating is the paper's empirical functional form
//
//	eff(ub) = A·ub / (B + ub)
//
// clamped to [Floor, 1]. A is the asymptotic utilization, B the microbatch
// size at which half of A is reached.
type Saturating struct {
	// A is the asymptotic efficiency (0 < A <= 1).
	A float64
	// B is the half-saturation microbatch size (B > 0).
	B float64
	// Floor is the lower clamp; Case Study I uses 0.25. Zero disables it.
	Floor float64
}

// Default returns the calibration used for the case-study reproductions:
// ~80% utilization at per-replica batch 128 (paper §VI-C: "up to 80%"),
// ~30% at microbatch 16 (§VI-B: "approx. 31%"), with the 25% floor.
func Default() Saturating { return Saturating{A: 0.9, B: 28, Floor: 0.25} }

// Eff evaluates the saturating curve with clamping. Non-positive microbatch
// sizes yield the floor (an idle or fractional-starved accelerator still
// pays the floor's worth of progress in the paper's accounting).
func (s Saturating) Eff(ub float64) float64 {
	e := 0.0
	if ub > 0 && s.B+ub > 0 {
		e = s.A * ub / (s.B + ub)
	}
	if e < s.Floor {
		e = s.Floor
	}
	if e > 1 {
		e = 1
	}
	if e <= 0 {
		// A degenerate parameterization (A<=0, no floor) would otherwise
		// produce a zero divisor in Eq. 3; pin a tiny utilization instead.
		e = 1e-9
	}
	return e
}

// Validate checks the parameterization is usable.
func (s Saturating) Validate() error {
	switch {
	case s.A <= 0 || s.A > 1:
		return fmt.Errorf("efficiency: asymptote A=%g outside (0,1]", s.A)
	case s.B <= 0:
		return fmt.Errorf("efficiency: half-saturation B=%g must be positive", s.B)
	case s.Floor < 0 || s.Floor > 1:
		return fmt.Errorf("efficiency: floor %g outside [0,1]", s.Floor)
	}
	return nil
}

// String renders the parameterization.
func (s Saturating) String() string {
	return fmt.Sprintf("eff(ub) = %.3g·ub/(%.3g+ub), floor %.2f", s.A, s.B, s.Floor)
}

// Fixed is a constant efficiency, useful for calibrating against published
// results where the average utilization is known.
type Fixed float64

// Eff returns the constant, clamped to (0, 1].
func (f Fixed) Eff(float64) float64 {
	v := float64(f)
	if v <= 0 {
		return 1e-9
	}
	if v > 1 {
		return 1
	}
	return v
}

// Point is one (microbatch size, measured efficiency) observation.
type Point struct {
	UB  float64
	Eff float64
}

// Fit estimates Saturating parameters from measured points by least squares.
// For a fixed B the optimal A is the closed-form linear regression through
// the origin on x = ub/(B+ub); Fit golden-section-searches B over a wide
// bracket. At least two points with distinct microbatch sizes are required.
// The returned model has no floor; callers add one deliberately.
func Fit(points []Point) (Saturating, error) {
	if len(points) < 2 {
		return Saturating{}, errors.New("efficiency: need at least 2 points to fit")
	}
	distinct := map[float64]bool{}
	maxUB := 0.0
	for _, p := range points {
		if p.UB <= 0 || p.Eff <= 0 || p.Eff > 1 {
			return Saturating{}, fmt.Errorf("efficiency: invalid point (ub=%g, eff=%g)", p.UB, p.Eff)
		}
		distinct[p.UB] = true
		if p.UB > maxUB {
			maxUB = p.UB
		}
	}
	if len(distinct) < 2 {
		return Saturating{}, errors.New("efficiency: points must cover at least 2 distinct microbatch sizes")
	}

	bestA := func(b float64) float64 {
		var num, den float64
		for _, p := range points {
			x := p.UB / (b + p.UB)
			num += x * p.Eff
			den += x * x
		}
		if den == 0 {
			return 0
		}
		a := num / den
		if a > 1 {
			a = 1
		}
		return a
	}
	sse := func(b float64) float64 {
		a := bestA(b)
		var s float64
		for _, p := range points {
			r := p.Eff - a*p.UB/(b+p.UB)
			s += r * r
		}
		return s
	}

	// Golden-section search on log(B) over [maxUB/1e4, maxUB*1e2].
	lo, hi := math.Log(maxUB/1e4), math.Log(maxUB*1e2)
	const phi = 0.6180339887498949
	x1 := hi - phi*(hi-lo)
	x2 := lo + phi*(hi-lo)
	f1, f2 := sse(math.Exp(x1)), sse(math.Exp(x2))
	for i := 0; i < 200 && hi-lo > 1e-10; i++ {
		if f1 < f2 {
			hi, x2, f2 = x2, x1, f1
			x1 = hi - phi*(hi-lo)
			f1 = sse(math.Exp(x1))
		} else {
			lo, x1, f1 = x1, x2, f2
			x2 = lo + phi*(hi-lo)
			f2 = sse(math.Exp(x2))
		}
	}
	b := math.Exp((lo + hi) / 2)
	fit := Saturating{A: bestA(b), B: b}
	if err := fit.Validate(); err != nil {
		return Saturating{}, fmt.Errorf("efficiency: fit degenerate: %w", err)
	}
	return fit, nil
}

// Table interpolates measured (ub, eff) points piecewise-linearly, clamping
// outside the measured range. It lets users bypass the functional form and
// drive the model directly from profiler data.
type Table struct {
	points []Point
}

// NewTable builds a Table from observations, sorting and validating them.
func NewTable(points []Point) (*Table, error) {
	if len(points) == 0 {
		return nil, errors.New("efficiency: empty table")
	}
	ps := make([]Point, len(points))
	copy(ps, points)
	sort.Slice(ps, func(i, j int) bool { return ps[i].UB < ps[j].UB })
	for i, p := range ps {
		if p.UB <= 0 || p.Eff <= 0 || p.Eff > 1 {
			return nil, fmt.Errorf("efficiency: invalid table point (ub=%g, eff=%g)", p.UB, p.Eff)
		}
		if i > 0 && p.UB == ps[i-1].UB {
			return nil, fmt.Errorf("efficiency: duplicate table microbatch size %g", p.UB)
		}
	}
	return &Table{points: ps}, nil
}

// Eff interpolates linearly between the bracketing observations.
func (t *Table) Eff(ub float64) float64 {
	ps := t.points
	if ub <= ps[0].UB {
		return ps[0].Eff
	}
	if ub >= ps[len(ps)-1].UB {
		return ps[len(ps)-1].Eff
	}
	i := sort.Search(len(ps), func(i int) bool { return ps[i].UB >= ub })
	a, b := ps[i-1], ps[i]
	w := (ub - a.UB) / (b.UB - a.UB)
	return a.Eff + w*(b.Eff-a.Eff)
}
