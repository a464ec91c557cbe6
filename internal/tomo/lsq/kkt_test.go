package lsq_test

import (
	"fmt"
	"math"
	"testing"

	"dophy/internal/rng"
	"dophy/internal/tomo/epochobs"
	"dophy/internal/tomo/lsq"
	"dophy/internal/topo"
)

// kktTol bounds each gradient entry's KKT violation, in units of the
// gradient's Lipschitz bound L.
const kktTol = 1e-9

// kktViolation checks x against the optimality conditions of
// min ‖A x − b‖² over x ≥ 0, from sys's rows alone. It rebuilds the
// residual A x − b and the gradient g = Aᵀ(A x − b) row by row and returns
// the largest violation over L, the max row sum of AᵀA: |g_j| where
// x_j > 0, −g_j where x_j = 0 and g_j < 0. A negative x_j is an error.
func kktViolation(sys *epochobs.System, x []float64) (float64, error) {
	g := make([]float64, len(sys.Cols))
	rowSum := make([]float64, len(sys.Cols)) // row sums of AᵀA
	for r := range sys.Rows() {
		path := sys.Path[sys.RowStart[r]:sys.RowStart[r+1]]
		res := -target(sys, r)
		for _, c := range path {
			res += x[c]
		}
		for _, c := range path {
			g[c] += res
			rowSum[c] += float64(len(path))
		}
	}
	lip := 0.0
	for _, s := range rowSum {
		lip = max(lip, s)
	}
	worst := 0.0
	for j, xj := range x {
		switch {
		case xj < 0:
			return 0, fmt.Errorf("x[%d] = %v is negative", j, xj)
		case xj > 0:
			worst = max(worst, math.Abs(g[j])/lip)
		default:
			worst = max(worst, -g[j]/lip)
		}
	}
	return worst, nil
}

// starEpoch is four origins one hop from the sink, each expecting 1000
// packets and losing a different share.
func starEpoch() (*topo.LinkTable, *epochobs.Epoch) {
	lt := topo.FromPoints([]topo.Point{{X: 0, Y: 0}, {X: 5, Y: 0}, {X: 0, Y: 5}, {X: -5, Y: 0}, {X: 0, Y: -5}}, 5.5).LinkTable()
	e := &epochobs.Epoch{
		Delivered: []int64{0, 1000, 990, 800, 0},
		Expected:  []int64{0, 1000, 1000, 1000, 1000},
		Tree:      []topo.NodeID{-1, 0, 0, 0, 0},
	}
	return lt, e
}

// TestNNLSMeetsKKT holds every solve that stopped before the iteration cap
// to the KKT conditions within kktTol, on synthetic chains, stars and
// branchy trees and on the epochs of simulated deployments. A solve that
// hit the cap is a truncated iterate, not an optimum, so its largest
// violation is logged rather than asserted.
func TestNNLSMeetsKKT(t *testing.T) {
	type solve struct {
		name string
		lt   *topo.LinkTable
		cfg  lsq.Config
		e    *epochobs.Epoch
	}
	var synthetic, real []solve
	cfg := lsq.DefaultConfig()
	synthetic = append(synthetic,
		solve{"chain", chainTable(4), cfg, chainEpoch(100000, []float64{0.02, 0.05, 0.1})},
		solve{"lossless chain", chainTable(3), cfg, chainEpoch(1000, []float64{0, 0})},
		solve{"clamped chain", chainTable(3), cfg, clampedChainEpoch()},
		solve{"branchy", starTable(), cfg, branchyEpoch()},
	)
	lt, e := starEpoch()
	synthetic = append(synthetic, solve{"star", lt, cfg, e})
	r := rng.New(5)
	for k := range 6 {
		n := 6 + 4*k
		synthetic = append(synthetic, solve{fmt.Sprintf("random tree %d", n), completeTable(n), cfg, randomTreeEpoch(r, n, 0.8)})
	}
	for _, rc := range realEpochs(t) {
		for k, e := range rc.epochs {
			real = append(real, solve{fmt.Sprintf("%s epoch %d", rc.name, k+1), rc.lt, rc.cfg, e})
		}
	}

	for _, set := range []struct {
		name   string
		solves []solve
	}{{"synthetic", synthetic}, {"simulated", real}} {
		stopped, capped := 0, 0
		lo, hi := math.Inf(1), 0.0
		for _, s := range set.solves {
			est := lsq.NewEstimator(s.lt, s.cfg)
			est.Estimate(s.e)
			sys, x := est.Solution()
			v, err := kktViolation(sys, x)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			if est.LastStats().Iters < s.cfg.Iters {
				stopped++
				if v > kktTol {
					t.Errorf("%s: stopped after %d iterations with KKT violation %.3g L, want at most %g L",
						s.name, est.LastStats().Iters, v, kktTol)
				}
				continue
			}
			capped++
			lo, hi = min(lo, v), max(hi, v)
		}
		t.Logf("%s: %d solves stopped before the %d-iteration cap", set.name, stopped, cfg.Iters)
		if capped > 0 {
			t.Logf("%s: %d solves hit the cap, with largest KKT violations from %.3g L to %.3g L", set.name, capped, lo, hi)
		}
		if stopped == 0 {
			t.Errorf("%s: no solve stopped before the cap, so none was checked", set.name)
		}
	}
}

func TestKKTViolationRejectsNegative(t *testing.T) {
	lt := chainTable(3)
	sys := epochobs.NewSystem(lt)
	sys.Build(chainEpoch(1000, []float64{0.1, 0.1}))
	if _, err := kktViolation(sys, []float64{0.1, -1e-300}); err == nil {
		t.Fatal("negative x accepted")
	}
	// The optimum of a chain with exact counts has zero gradient; a point
	// off it has a large one.
	v, err := kktViolation(sys, []float64{1, 1})
	if err != nil || v < 0.1 {
		t.Fatalf("violation at a far point = %v, %v; want large", v, err)
	}
}
