package minc_test

import (
	"fmt"
	"math"
	"testing"

	"dophy/internal/tomo/epochobs"
	"dophy/internal/tomo/minc"
	"dophy/internal/topo"
)

// emDrops is the textbook EM for serial-link loss, the reference the
// closed-form fit is held to. It starts every column at half the aggregate
// loss rate and runs at most maxIters sweeps, stopping early when no drop
// moves by tol or more. It returns each column's per-hop drop probability.
//
// E-step: a lost packet from source s died on exactly one link of s's path;
// the posterior probability it died on link l is the chance it survived all
// links before l times the drop probability of l, normalised over the path.
// M-step: each link's drop probability is its expected deaths over its
// expected traversals.
func emDrops(sys *epochobs.System, maxIters int, tol float64) []float64 {
	path, rowStart, deliv, lost := sys.Path, sys.RowStart, sys.Delivered, sys.Lost
	n := len(sys.Cols)
	drop, deaths, traversals := make([]float64, n), make([]float64, n), make([]float64, n)
	var totalExp, totalLost float64
	for s := range sys.Rows() {
		totalExp += deliv[s] + lost[s]
		totalLost += lost[s]
	}
	init := totalLost / math.Max(totalExp, 1) / 2
	if init <= 0 {
		init = 1e-4
	}
	for i := range drop {
		drop[i] = init
	}
	for range maxIters {
		clear(deaths)
		clear(traversals)
		for s := range sys.Rows() {
			row := path[rowStart[s]:rowStart[s+1]]
			// Path delivery probability S_k = prod(1 - d_j).
			pathDeliver := 1.0
			for _, li := range row {
				pathDeliver *= 1 - drop[li]
			}
			pathLoss := 1 - pathDeliver
			// Delivered packets were offered to every link on the path.
			for _, li := range row {
				traversals[li] += deliv[s]
			}
			if lost[s] > 0 && pathLoss > 1e-15 {
				// surv tracks S_{i-1}, the probability of surviving all
				// links before the current one.
				surv := 1.0
				for _, li := range row {
					// P(died exactly at l_i | lost) = S_{i-1} d_i / L.
					deaths[li] += lost[s] * surv * drop[li] / pathLoss
					// P(offered to l_i | lost) = (S_{i-1} - S_k) / L.
					traversals[li] += lost[s] * (surv - pathDeliver) / pathLoss
					surv *= 1 - drop[li]
				}
			}
		}
		maxDelta := 0.0
		for i := range drop {
			if traversals[i] <= 0 {
				continue
			}
			nd := min(max(deaths[i]/traversals[i], 0), 1-1e-9)
			maxDelta = max(maxDelta, math.Abs(nd-drop[i]))
			drop[i] = nd
		}
		if maxDelta < tol {
			break
		}
	}
	return drop
}

// logLikelihood is the binomial log-likelihood of sys's rows under per-column
// drop probabilities: each row delivered its count out of its expected one
// with the product of its links' success probabilities.
func logLikelihood(sys *epochobs.System, drop []float64) float64 {
	ll := 0.0
	for r := range sys.Rows() {
		p := 1.0
		for _, c := range sys.Path[sys.RowStart[r]:sys.RowStart[r+1]] {
			p *= 1 - drop[c]
		}
		if d := sys.Delivered[r]; d > 0 {
			ll += d * math.Log(p)
		}
		if l := sys.Lost[r]; l > 0 {
			ll += l * math.Log(1-p)
		}
	}
	return ll
}

// siblingsEpoch is the tree {-1,0,1,1} on starTable in which siblings 2 and
// 3 lose a fifth of their packets together while their parent loses none.
// With silentParent the parent sends too few packets to have a row, so
// nothing tells its link's loss from the siblings'.
func siblingsEpoch(silentParent bool) *epochobs.Epoch {
	e := &epochobs.Epoch{
		Delivered: []int64{0, 5000, 4000, 4000},
		Expected:  []int64{0, 5000, 5000, 5000},
		Tree:      []topo.NodeID{-1, 0, 1, 1},
	}
	if silentParent {
		e.Delivered[1], e.Expected[1] = 0, 0
	}
	return e
}

// TestFitMatchesEMReference holds MINC's closed-form fit to the EM it
// replaced, on synthetic trees and on simulated epochs. Its log-likelihood
// must be at least that of EM stopped at 500 sweeps, MINC's old cap, and of
// EM run for up to 50,000 sweeps, until no drop moves by 1e-13. Both
// comparisons allow 1e-12 of the log-likelihood for rounding. The long EM
// is not required to reach the fit: where the MLE puts links at drop 0 it
// converges slowly, and on two simulated epochs it still trails the fit by
// 4e-9 and 2e-8 of the log-likelihood.
func TestFitMatchesEMReference(t *testing.T) {
	type system struct {
		name string
		lt   *topo.LinkTable
		e    *epochobs.Epoch
	}
	cases := []system{
		{"chain", chainTable(4), chainEpoch(100000, []float64{0.03, 0.08, 0.15})},
		{"lossy far link", chainTable(3), chainEpoch(100000, []float64{0.0, 0.3})},
		{"branchy", starTable(), branchyEpoch()},
		{"siblings lose together", starTable(), siblingsEpoch(false)},
		{"siblings lose together, silent parent", starTable(), siblingsEpoch(true)},
	}
	for _, rc := range realEpochs(t) {
		for k, e := range rc.epochs {
			cases = append(cases, system{fmt.Sprintf("%s epoch %d", rc.name, k+1), rc.lt, e})
		}
	}
	ahead := 0.0 // the fit's largest lead over the long EM, relative
	for _, c := range cases {
		est := minc.NewEstimator(c.lt, minc.DefaultConfig())
		est.Estimate(c.e)
		sys, drop := est.Solution()
		fit := logLikelihood(sys, drop)
		capped := logLikelihood(sys, emDrops(sys, 500, 1e-9))
		long := logLikelihood(sys, emDrops(sys, 50_000, 1e-13))
		for _, ref := range []struct {
			name string
			ll   float64
		}{{"500-sweep", capped}, {"50,000-sweep", long}} {
			if fit < ref.ll-1e-12*math.Abs(ref.ll) {
				t.Errorf("%s: fit log-likelihood %.15g below the %s EM's %.15g", c.name, fit, ref.name, ref.ll)
			}
		}
		ahead = max(ahead, (fit-long)/math.Abs(long))
	}
	t.Logf("the fit's log-likelihood leads the long EM's by up to %.3g of it", ahead)
}
