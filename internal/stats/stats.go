// Package stats provides the error metrics and summaries the experiment
// harness reports: absolute/relative error aggregates, quantiles and
// empirical CDFs — hand-rolled on sorted slices.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary aggregates a sample of float64 values.
type Summary struct {
	N             int
	Mean          float64
	Std           float64
	Min, Max      float64
	P50, P90, P95 float64
}

// Summarize computes a Summary (zero value for an empty sample).
func Summarize(xs []float64) Summary {
	var s Summary
	s.N = len(xs)
	if s.N == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	sum, sumSq := 0.0, 0.0
	for _, x := range sorted {
		sum += x
		sumSq += x * x
	}
	s.Mean = sum / float64(s.N)
	variance := sumSq/float64(s.N) - s.Mean*s.Mean
	if variance > 0 {
		s.Std = math.Sqrt(variance)
	}
	s.Min, s.Max = sorted[0], sorted[s.N-1]
	s.P50 = Quantile(sorted, 0.5)
	s.P90 = Quantile(sorted, 0.9)
	s.P95 = Quantile(sorted, 0.95)
	return s
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4f std=%.4f p50=%.4f p90=%.4f max=%.4f",
		s.N, s.Mean, s.Std, s.P50, s.P90, s.Max)
}

// Quantile returns the q-quantile (0<=q<=1) of an already-sorted sample by
// linear interpolation. Panics on empty input.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		panic("stats: quantile of empty sample")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// MAE returns the mean absolute error between two equal-length vectors.
func MAE(est, truth []float64) float64 {
	if len(est) != len(truth) {
		panic("stats: MAE length mismatch")
	}
	if len(est) == 0 {
		return 0
	}
	s := 0.0
	for i := range est {
		s += math.Abs(est[i] - truth[i])
	}
	return s / float64(len(est))
}

// RMSE returns the root mean squared error.
func RMSE(est, truth []float64) float64 {
	if len(est) != len(truth) {
		panic("stats: RMSE length mismatch")
	}
	if len(est) == 0 {
		return 0
	}
	s := 0.0
	for i := range est {
		d := est[i] - truth[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(est)))
}

// MaxAbsErr returns the largest absolute error.
func MaxAbsErr(est, truth []float64) float64 {
	if len(est) != len(truth) {
		panic("stats: MaxAbsErr length mismatch")
	}
	m := 0.0
	for i := range est {
		if d := math.Abs(est[i] - truth[i]); d > m {
			m = d
		}
	}
	return m
}

// CDF returns (x, F(x)) points of the empirical CDF of xs evaluated at each
// distinct sample value.
func CDF(xs []float64) (x, f []float64) {
	if len(xs) == 0 {
		return nil, nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	for i := 0; i < len(sorted); i++ {
		if i+1 < len(sorted) && sorted[i+1] == sorted[i] {
			continue // emit each distinct value once, at its last index
		}
		x = append(x, sorted[i])
		f = append(f, float64(i+1)/n)
	}
	return x, f
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
