package geomle_test

import (
	"fmt"
	"math"
	"testing"

	"dophy/internal/rng"
	"dophy/internal/tomo/geomle"
)

// oracleStep is the grid spacing of the brute-force oracle over p.
const oracleStep = 1e-4

// oracleLogLik evaluates the package's documented observation model from
// its definition, not from the closed forms the estimator uses: the
// unconditional law P(T = t) = (1-p)^(t-1) p is summed term by term for the
// delivery mass Z (t = 1..m) and for the censored tail mass (t = a+1..m),
// and every observation contributes log(mass / Z).
func oracleLogLik(exact []float64, censored float64, m int, p float64) float64 {
	pt := make([]float64, m+1) // pt[t] = P(T = t)
	z := 0.0
	for t := 1; t <= m; t++ {
		pt[t] = p
		for i := 1; i < t; i++ {
			pt[t] *= 1 - p
		}
		z += pt[t]
	}
	ll := 0.0
	for i, c := range exact {
		if c > 0 {
			ll += c * math.Log(pt[i+1]/z)
		}
	}
	if censored > 0 {
		tail := 0.0
		for t := len(exact) + 1; t <= m; t++ {
			tail += pt[t]
		}
		ll += censored * math.Log(tail/z)
	}
	return ll
}

// oracleGrid returns the log-likelihood at p = k*oracleStep for
// k = 1..1/oracleStep-1.
func oracleGrid(exact []float64, censored float64, m int) (ps, lls []float64) {
	n := int(math.Round(1 / oracleStep))
	for k := 1; k < n; k++ {
		p := float64(k) * oracleStep
		ps = append(ps, p)
		lls = append(lls, oracleLogLik(exact, censored, m, p))
	}
	return ps, lls
}

// oracleHistograms returns small attempt histograms for max attempts m and
// tail threshold a (0: no censoring, len(Exact) == m): a few hand-picked
// shapes — all mass on the last exact bin, all in the tail, fractional
// decayed weights — then random integer counts in 0..4.
func oracleHistograms(r *rng.Source, m, a int) []geomle.Obs {
	exactLen := m
	if a > 0 {
		exactLen = a
	}
	var out []geomle.Obs
	last := geomle.Obs{Exact: make([]float64, exactLen)}
	last.Exact[exactLen-1] = 3
	out = append(out, last)
	mixed := geomle.Obs{Exact: make([]float64, exactLen)}
	for i := range mixed.Exact {
		mixed.Exact[i] = 0.9 / float64(i+1)
	}
	if a > 0 {
		mixed.Censored = 0.35
		out = append(out, geomle.Obs{Exact: make([]float64, exactLen), Censored: 2})
	}
	out = append(out, mixed)
	for len(out) < 24 {
		o := geomle.Obs{Exact: make([]float64, exactLen)}
		for i := range o.Exact {
			o.Exact[i] = float64(r.Intn(5))
		}
		if a > 0 {
			o.Censored = float64(r.Intn(5))
		}
		if o.Total() > 0 {
			out = append(out, o)
		}
	}
	return out
}

// TestEstimatePMatchesGridOracle checks EstimateP against a brute-force
// maximisation of the documented truncated, censored log-likelihood: the
// estimate must lie within one grid step of a grid maximiser. Every grid
// point whose log-likelihood equals the maximum to 1e-12 (relative) counts
// as a maximiser, so a likelihood that is flat in p (m = 1, where every
// delivered packet succeeds on its only attempt) accepts any estimate. It
// also checks the package's claim that the likelihood is unimodal: past
// the first strict descent the grid values never rise again.
func TestEstimatePMatchesGridOracle(t *testing.T) {
	r := rng.New(20150901)
	for _, m := range []int{1, 2, 4, 8} {
		for _, a := range []int{0, 1, 3} {
			if a >= m {
				continue // no tail room: the aggregation threshold needs a < m
			}
			for hi, obs := range oracleHistograms(r, m, a) {
				name := fmt.Sprintf("m=%d/a=%d/%d", m, a, hi)
				got, err := obs.EstimateP(m)
				if err != nil {
					t.Fatalf("%s: %+v: %v", name, obs, err)
				}
				ps, lls := oracleGrid(obs.Exact, obs.Censored, m)
				best := math.Inf(-1)
				for _, ll := range lls {
					best = math.Max(best, ll)
				}
				tol := 1e-12 * math.Max(1, math.Abs(best))
				near := false
				for k, ll := range lls {
					if ll >= best-tol && math.Abs(got-ps[k]) <= oracleStep*(1+1e-9) {
						near = true
						break
					}
				}
				if !near {
					t.Errorf("%s: %+v: EstimateP = %.6f, not within %g of any grid maximiser (max log-lik %.9g)",
						name, obs, got, oracleStep, best)
				}
				descending := false
				for k := 1; k < len(lls); k++ {
					if lls[k] < lls[k-1]-tol {
						descending = true
					} else if descending && lls[k] > lls[k-1]+tol {
						t.Errorf("%s: %+v: log-likelihood rises again at p = %.4f: a second local maximum",
							name, obs, ps[k])
						break
					}
				}
			}
		}
	}
}
