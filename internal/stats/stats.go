// Package stats provides the sample summaries the experiment harness
// reports: quantiles of sorted samples and means. Accuracy scoring lives
// in experiment.Score.
package stats

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
