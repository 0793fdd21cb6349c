package main

import (
	"fmt"
	"math"
	"sort"
)

// minSamples is how many samples a percentile needs: at least ten beyond it,
// so p90 needs 100 and p99 needs 1000.
func minSamples(q float64) int { return int(math.Round(10 / (1 - q))) }

// percentile returns the nearest-rank q-quantile of xs. A sample too small
// for q is an error, never a lower percentile in its place.
func percentile(xs []float64, q float64) (float64, error) {
	if need := minSamples(q); len(xs) < need {
		return 0, fmt.Errorf("p%g needs %d samples, have %d", 100*q, need, len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for no values.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default exclusive
// method), the definition a run set's spread is judged by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// fitLine fits y = fixed + perUnit·x by least squares weighted by 1/y², so
// every rung of a ladder spanning decades counts by its relative error:
// the small rungs set the fixed part, the large ones the slope.
func fitLine(xs, ys []float64) (fixed, perUnit float64, err error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, 0, fmt.Errorf("fit needs two or more points, have %d", len(xs))
	}
	var sw, sx, sy, sxx, sxy float64
	for i := range xs {
		w := 1.0
		if ys[i] != 0 {
			w = 1 / (ys[i] * ys[i])
		}
		sw += w
		sx += w * xs[i]
		sy += w * ys[i]
		sxx += w * xs[i] * xs[i]
		sxy += w * xs[i] * ys[i]
	}
	den := sw*sxx - sx*sx
	if den == 0 {
		return 0, 0, fmt.Errorf("fit needs two distinct x values")
	}
	perUnit = (sw*sxy - sx*sy) / den
	fixed = (sy - perUnit*sx) / sw
	return fixed, perUnit, nil
}
