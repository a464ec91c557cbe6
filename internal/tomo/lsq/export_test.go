package lsq

import "dophy/internal/tomo/epochobs"

// Solution returns the system the last Estimate call built and the NNLS
// iterate it stopped at, one entry per column. Both alias the estimator's
// scratch.
func (est *Estimator) Solution() (*epochobs.System, []float64) {
	return est.sys, est.x[:len(est.sys.Cols)]
}

// NormalEquations builds e's system and the solver's normal equations from
// it, and returns the system, Aᵀb and the Lipschitz bound.
func (est *Estimator) NormalEquations(e *epochobs.Epoch) (*epochobs.System, []float64, float64) {
	est.sys.Build(e)
	lip := est.normalEquations()
	return est.sys, est.atb[:len(est.sys.Cols)], lip
}

// GramMulVec computes grad = G x with the solver's kernel, for the G the
// last NormalEquations or Estimate call built.
func (est *Estimator) GramMulVec(grad, x []float64) { est.gramMulVec(grad, x) }
