// Package geomle estimates per-attempt link loss from retransmission-count
// observations: the maximum-likelihood estimator for a geometric success
// process truncated by the ARQ retry budget and optionally right-censored by
// Dophy's symbol aggregation.
//
// Observation model. A link with per-attempt success probability p delivers
// a packet on attempt T, where P(T = t) = (1-p)^(t-1) p. The MAC allows at
// most M attempts, and only delivered packets are observed downstream, so an
// observed count follows the conditional law
//
//	P(T = t | delivered) = (1-p)^(t-1) p / (1 - (1-p)^M),  1 <= t <= M.
//
// With aggregation threshold A (retransmission counts >= A collapse into one
// tail symbol), a tail observation contributes the censored mass
//
//	P(A+1 <= T <= M | delivered) = ((1-p)^A - (1-p)^M) / (1 - (1-p)^M).
//
// The estimator maximises the resulting log-likelihood by golden-section
// search — the likelihood is unimodal in p — entirely with stdlib math, per
// this repo's hand-rolled-numerics rule.
package geomle

import (
	"fmt"
	"math"
)

// Obs aggregates the retransmission observations of one link. Counts are
// float64 so estimators can apply exponential forgetting (each old
// observation keeps a fractional weight); integer counting is the special
// case of weight-1 observations.
type Obs struct {
	// Exact[t-1] is the (possibly decayed) count of packets first delivered
	// on attempt t, for t = 1..len(Exact). With aggregation, len(Exact) ==
	// A; without, len(Exact) == M.
	Exact []float64
	// Censored is the count of tail observations (attempt > len(Exact)),
	// known only to lie in [len(Exact)+1, M].
	Censored float64
}

// Total returns the (effective) number of observations.
func (o Obs) Total() float64 {
	n := o.Censored
	for _, c := range o.Exact {
		n += c
	}
	return n
}

// Decay multiplies every accumulated count by factor, implementing
// exponential forgetting across estimation epochs.
func (o *Obs) Decay(factor float64) {
	if factor < 0 || factor > 1 {
		panic("geomle: decay factor outside [0,1]")
	}
	for i := range o.Exact {
		o.Exact[i] *= factor
	}
	o.Censored *= factor
}

// AddAttempt records an exact first-delivery attempt t (1-based).
func (o *Obs) AddAttempt(t int) {
	if t < 1 || t > len(o.Exact) {
		panic(fmt.Sprintf("geomle: attempt %d outside exact range [1,%d]", t, len(o.Exact)))
	}
	o.Exact[t-1]++
}

// logLikelihood evaluates the censored truncated-geometric log-likelihood
// at success probability p for max attempts m.
func (o Obs) logLikelihood(p float64, m int) float64 {
	q := 1 - p
	logQ := math.Log(q)
	logP := math.Log(p)
	qM := math.Pow(q, float64(m))
	logZ := math.Log(1 - qM)
	ll := 0.0
	var n float64
	for i, c := range o.Exact {
		if c == 0 {
			continue
		}
		t := float64(i + 1)
		ll += c * ((t-1)*logQ + logP)
		n += c
	}
	if o.Censored > 0 {
		a := float64(len(o.Exact))
		mass := math.Pow(q, a) - qM
		if mass <= 0 {
			return math.Inf(-1)
		}
		ll += o.Censored * math.Log(mass)
		n += o.Censored
	}
	ll -= n * logZ
	return ll
}

// EstimateP returns the MLE of the per-attempt success probability given
// max attempts m (the MAC budget). It returns an error when there are no
// observations or the configuration is inconsistent.
func (o Obs) EstimateP(m int) (float64, error) {
	if m < 1 {
		return 0, fmt.Errorf("geomle: max attempts %d < 1", m)
	}
	if len(o.Exact) > m {
		return 0, fmt.Errorf("geomle: %d exact bins exceed max attempts %d", len(o.Exact), m)
	}
	if o.Censored > 0 && len(o.Exact) == m {
		return 0, fmt.Errorf("geomle: censored observations with no tail room")
	}
	n := o.Total()
	if n == 0 {
		return 0, fmt.Errorf("geomle: no observations")
	}
	// Degenerate fast path: everything delivered first try => p-hat = 1
	// under the truncated likelihood (supremum at p -> 1).
	if len(o.Exact) > 0 && o.Exact[0] == n {
		return 1, nil
	}
	const lo0, hi0 = 1e-9, 1 - 1e-9
	// Golden-section search for the maximum.
	const phi = 0.6180339887498949
	lo, hi := lo0, hi0
	x1 := hi - phi*(hi-lo)
	x2 := lo + phi*(hi-lo)
	f1 := o.logLikelihood(x1, m)
	f2 := o.logLikelihood(x2, m)
	for i := 0; i < 200 && hi-lo > 1e-12; i++ {
		if f1 < f2 {
			lo = x1
			x1, f1 = x2, f2
			x2 = lo + phi*(hi-lo)
			f2 = o.logLikelihood(x2, m)
		} else {
			hi = x2
			x2, f2 = x1, f1
			x1 = hi - phi*(hi-lo)
			f1 = o.logLikelihood(x1, m)
		}
	}
	return (lo + hi) / 2, nil
}

// StdErr approximates the standard error of the loss estimate via the
// observed information (numerical second derivative at the MLE). It returns
// 0 when the curvature is degenerate (e.g. p-hat at the boundary).
func (o Obs) StdErr(m int, pHat float64) float64 {
	if pHat <= 1e-6 || pHat >= 1-1e-6 {
		return 0
	}
	const h = 1e-5
	f0 := o.logLikelihood(pHat, m)
	fp := o.logLikelihood(pHat+h, m)
	fm := o.logLikelihood(pHat-h, m)
	d2 := (fp - 2*f0 + fm) / (h * h)
	if d2 >= 0 || math.IsNaN(d2) || math.IsInf(d2, 0) {
		return 0
	}
	return 1 / math.Sqrt(-d2)
}

// DropProbability returns the per-packet drop probability implied by
// per-attempt loss and the retry budget: (loss)^m.
func DropProbability(loss float64, m int) float64 {
	return math.Pow(loss, float64(m))
}

// LossFromDrop inverts DropProbability: the per-attempt loss consistent
// with an observed per-hop packet drop probability under m attempts. This
// is how delivery-ratio baselines are mapped onto the fine-grained metric.
func LossFromDrop(drop float64, m int) float64 {
	if drop <= 0 {
		return 0
	}
	if drop >= 1 {
		return 1
	}
	return math.Pow(drop, 1/float64(m))
}
