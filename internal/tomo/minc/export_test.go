package minc

import "dophy/internal/tomo/epochobs"

// Solution returns the system the last Estimate call built and the per-hop
// drop probability it found for each column. Both alias the estimator's
// scratch.
func (est *Estimator) Solution() (*epochobs.System, []float64) {
	return est.sys, est.drop[:len(est.sys.Cols)]
}
