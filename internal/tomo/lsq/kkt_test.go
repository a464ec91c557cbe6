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

// target is row r's least-squares target, −log of its delivery ratio, with
// one phantom half-packet delivery when nothing arrived so the log stays
// finite.
func target(sys *epochobs.System, r int) float64 {
	n := sys.Delivered[r] + sys.Lost[r]
	dr := sys.Delivered[r] / n
	if dr <= 0 {
		dr = 0.5 / n
	}
	return -math.Log(dr)
}

// completeTable is the link table of n nodes that all hear each other, so
// any tree over them is routable.
func completeTable(n int) *topo.LinkTable {
	pos := make([]topo.Point, n)
	for i := range pos {
		angle := 2 * math.Pi * float64(i) / float64(n)
		pos[i] = topo.Point{X: math.Cos(angle), Y: math.Sin(angle)}
	}
	return topo.FromPoints(pos, 3).LinkTable()
}

// randomTreeEpoch draws a tree over n nodes, each node's parent a random
// lower-numbered node, in which each origin sends enough packets to enter
// the system with probability p and delivers a random share of them, none
// included.
func randomTreeEpoch(r *rng.Source, n int, p float64) *epochobs.Epoch {
	e := &epochobs.Epoch{Delivered: make([]int64, n), Expected: make([]int64, n), Tree: make([]topo.NodeID, n)}
	e.Tree[0] = -1
	for v := 1; v < n; v++ {
		e.Tree[v] = topo.NodeID(r.Intn(v))
		e.Expected[v] = int64(r.Intn(epochobs.MinExpected))
		if r.Bool(p) {
			e.Expected[v] = epochobs.MinExpected + int64(r.Intn(200))
		}
		e.Delivered[v] = int64(r.Intn(int(e.Expected[v]) + 1))
	}
	return e
}

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

// TestNNLSMeetsKKT holds every solve to the KKT conditions within kktTol,
// on synthetic chains, stars, branchy and random trees and on the epochs of
// simulated deployments. The solves must include a row that delivered
// nothing, whose target takes the phantom half packet (a collector never
// cuts one: an origin's expected count comes from the sequence numbers that
// reached the sink), and simulated columns that no row starts at, whose
// split of loss with the next column the fit fixes.
func TestNNLSMeetsKKT(t *testing.T) {
	type solve struct {
		name string
		lt   *topo.LinkTable
		e    *epochobs.Epoch
	}
	var synthetic, real []solve
	synthetic = append(synthetic,
		solve{"chain", chainTable(4), chainEpoch(100000, []float64{0.02, 0.05, 0.1})},
		solve{"lossless chain", chainTable(3), chainEpoch(1000, []float64{0, 0})},
		solve{"clamped chain", chainTable(3), clampedChainEpoch()},
		solve{"branchy", starTable(), branchyEpoch()},
	)
	lt, e := starEpoch()
	synthetic = append(synthetic, solve{"star", lt, e})
	r := rng.New(5)
	for k := range 6 {
		n := 6 + 4*k
		synthetic = append(synthetic, solve{fmt.Sprintf("random tree %d", n), completeTable(n), randomTreeEpoch(r, n, 0.8)})
	}
	for _, rc := range realEpochs(t) {
		for k, e := range rc.epochs {
			real = append(real, solve{fmt.Sprintf("%s epoch %d", rc.name, k+1), rc.lt, e})
		}
	}

	halfPacket, rowless := 0, 0
	check := func(s solve, simulated bool) {
		est := lsq.NewEstimator(s.lt, lsq.DefaultConfig())
		est.Estimate(s.e)
		sys, x := est.Solution()
		v, err := kktViolation(sys, x)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if v > kktTol {
			t.Errorf("%s: KKT violation %.3g L, want at most %g L", s.name, v, kktTol)
		}
		starts := make([]bool, len(sys.Cols))
		for r := range sys.Rows() {
			starts[sys.Path[sys.RowStart[r]]] = true
			if sys.Delivered[r] == 0 {
				halfPacket++
			}
		}
		for _, ok := range starts {
			if !ok && simulated {
				rowless++
			}
		}
	}
	for _, s := range synthetic {
		check(s, false)
	}
	for _, s := range real {
		check(s, true)
	}
	t.Logf("%d rows that delivered nothing; %d simulated columns no row starts at", halfPacket, rowless)
	if halfPacket == 0 || rowless == 0 {
		t.Fatal("the solves no longer cover rows that deliver nothing and simulated columns without a row")
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
