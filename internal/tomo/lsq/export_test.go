package lsq

import "dophy/internal/tomo/epochobs"

// Solution returns the system the last Estimate call built and the
// solution it found, one entry per column. Both alias the estimator's
// scratch.
func (est *Estimator) Solution() (*epochobs.System, []float64) {
	return est.sys, est.x[:len(est.sys.Cols)]
}
