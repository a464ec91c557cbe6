package lsq_test

import (
	"fmt"
	"math"
	"testing"

	"dophy/internal/rng"
	"dophy/internal/tomo/epochobs"
	"dophy/internal/tomo/geomle"
	"dophy/internal/tomo/lsq"
	"dophy/internal/topo"
)

// chainTable is the link table of an n-node chain matching chainEpoch's
// tree.
func chainTable(nodes int) *topo.LinkTable {
	return topo.Chain(nodes, 10, 10.5).LinkTable()
}

// starTable covers the tree {-1,0,1,1}: 1 adjacent to the sink, 2 and 3
// adjacent to 1.
func starTable() *topo.LinkTable {
	return topo.FromPoints([]topo.Point{{X: 0, Y: 0}, {X: 5, Y: 0}, {X: 5, Y: 5}, {X: 5, Y: -5}}, 5.5).LinkTable()
}

// toMap converts a dense estimate vector to the map shape the assertions
// index by, dropping NaN (not-estimated) entries.
func toMap(lt *topo.LinkTable, est []float64) map[topo.Link]float64 {
	out := map[topo.Link]float64{}
	for i, v := range est {
		if !math.IsNaN(v) {
			out[lt.Link(topo.LinkIdx(i))] = v
		}
	}
	return out
}

// chainEpoch builds an epoch over the tree 3->2->1->0 where every node sent
// n packets and per-hop drop probabilities are given (index i = link from
// node i+1... see below).
func chainEpoch(n int64, drops []float64) *epochobs.Epoch {
	// drops[i] is the drop probability of link (i+1) -> i for i=0..len-1.
	nodes := len(drops) + 1
	e := &epochobs.Epoch{
		Delivered: make([]int64, nodes),
		Expected:  make([]int64, nodes),
		Tree:      make([]topo.NodeID, nodes),
	}
	e.Tree[0] = -1
	for i := 1; i < nodes; i++ {
		e.Tree[i] = topo.NodeID(i - 1)
		deliver := 1.0
		for j := 0; j < i; j++ {
			deliver *= 1 - drops[j]
		}
		e.Expected[i] = n
		e.Delivered[i] = int64(math.Round(float64(n) * deliver))
	}
	return e
}

func TestRecoversChainDrops(t *testing.T) {
	drops := []float64{0.02, 0.05, 0.1}
	e := chainEpoch(100000, drops)
	cfg := lsq.DefaultConfig()
	lt := chainTable(4)
	got := toMap(lt, lsq.NewEstimator(lt, cfg).Estimate(e))
	if len(got) != 3 {
		t.Fatalf("estimated %d links", len(got))
	}
	for i, d := range drops {
		l := topo.Link{From: topo.NodeID(i + 1), To: topo.NodeID(i)}
		wantLoss := geomle.LossFromDrop(d, cfg.MaxAttempts)
		if math.Abs(got[l]-wantLoss) > 0.02 {
			t.Fatalf("link %v loss = %v, want ~%v", l, got[l], wantLoss)
		}
	}
}

func TestPerfectDeliveryZeroLoss(t *testing.T) {
	e := chainEpoch(1000, []float64{0, 0})
	lt := chainTable(3)
	got := toMap(lt, lsq.NewEstimator(lt, lsq.DefaultConfig()).Estimate(e))
	for l, loss := range got {
		if loss > 0.01 {
			t.Fatalf("lossless link %v estimated at %v", l, loss)
		}
	}
}

func TestSkipsUnderSampledOrigins(t *testing.T) {
	e := chainEpoch(2, []float64{0.1}) // below MinExpected
	lt := chainTable(2)
	got := toMap(lt, lsq.NewEstimator(lt, lsq.DefaultConfig()).Estimate(e))
	if len(got) != 0 {
		t.Fatalf("under-sampled epoch produced estimates: %v", got)
	}
}

func TestSkipsUnroutedOrigins(t *testing.T) {
	e := chainEpoch(1000, []float64{0.1, 0.1})
	e.Tree[1] = -1 // break the shared tail; origins 1 and 2 lose their paths
	lt := chainTable(3)
	got := toMap(lt, lsq.NewEstimator(lt, lsq.DefaultConfig()).Estimate(e))
	if len(got) != 0 {
		t.Fatalf("unroutable origins produced estimates: %v", got)
	}
}

func TestZeroDeliveryClamped(t *testing.T) {
	e := chainEpoch(100, []float64{0.5})
	e.Delivered[1] = 0 // nothing arrived
	lt := chainTable(2)
	got := toMap(lt, lsq.NewEstimator(lt, lsq.DefaultConfig()).Estimate(e))
	l := topo.Link{From: 1, To: 0}
	if got[l] <= 0 || got[l] > 1 || math.IsInf(got[l], 0) || math.IsNaN(got[l]) {
		t.Fatalf("zero-delivery estimate = %v", got[l])
	}
}

func TestEmptyEpoch(t *testing.T) {
	e := &epochobs.Epoch{Delivered: make([]int64, 3), Expected: make([]int64, 3), Tree: []topo.NodeID{-1, -1, -1}}
	lt := chainTable(3)
	if got := toMap(lt, lsq.NewEstimator(lt, lsq.DefaultConfig()).Estimate(e)); len(got) != 0 {
		t.Fatalf("empty epoch gave %v", got)
	}
}

func TestPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MaxAttempts 0 accepted")
		}
	}()
	lsq.NewEstimator(chainTable(2), lsq.Config{MaxAttempts: 0})
}

// sameEstimates fails unless got and want agree bitwise, NaN for NaN.
func sameEstimates(t *testing.T, lt *topo.LinkTable, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		a, b := want[i], got[i]
		if math.IsNaN(a) != math.IsNaN(b) || (!math.IsNaN(a) && a != b) {
			t.Fatalf("%s: link %v = %v, want %v", label, lt.Link(topo.LinkIdx(i)), b, a)
		}
	}
}

// churnEpochs returns a 196-node grid epoch and a copy in which one
// interior origin sent nothing, so its row leaves the system and the
// compact column order changes.
func churnEpochs(lt *topo.LinkTable) (full, churned *epochobs.Epoch) {
	full = benchEpoch(lt)
	churned = &epochobs.Epoch{
		Delivered: append([]int64(nil), full.Delivered...),
		Expected:  append([]int64(nil), full.Expected...),
		Tree:      append([]topo.NodeID(nil), full.Tree...),
	}
	for _, p := range full.Tree {
		if p > 0 { // p is somebody's parent and not the sink
			churned.Delivered[p], churned.Expected[p] = 0, 0
			break
		}
	}
	return full, churned
}

func TestEstimatorReuseAcrossEpochs(t *testing.T) {
	// The same estimator must give identical answers on repeated epochs —
	// scratch reuse must not leak state across calls.
	lt := chainTable(4)
	est := lsq.NewEstimator(lt, lsq.DefaultConfig())
	// Estimate returns borrowed scratch: copy out before the next call.
	first := append([]float64(nil), est.Estimate(chainEpoch(100000, []float64{0.02, 0.05, 0.1}))...)
	est.Estimate(chainEpoch(1000, []float64{0, 0, 0})) // interleaved epoch
	sameEstimates(t, lt, "chain", est.Estimate(chainEpoch(100000, []float64{0.02, 0.05, 0.1})), first)

	// A row leaving and re-entering (an origin dropping below MinExpected
	// and recovering) reshapes the system and reorders its columns: every
	// epoch must still match a fresh estimator.
	lt = topo.Grid(14, 10, 1.5, 14, rng.New(1)).LinkTable()
	full, churned := churnEpochs(lt)
	wantFull := lsq.NewEstimator(lt, lsq.DefaultConfig()).Estimate(full)
	wantChurned := lsq.NewEstimator(lt, lsq.DefaultConfig()).Estimate(churned)
	est = lsq.NewEstimator(lt, lsq.DefaultConfig())
	for k, e := range []*epochobs.Epoch{full, churned, full, churned, full} {
		want := wantFull
		if e == churned {
			want = wantChurned
		}
		sameEstimates(t, lt, fmt.Sprintf("churn epoch %d", k), est.Estimate(e), want)
	}
}

// Per-hop drop probabilities of branchyEpoch's links.
const dTrunk, d2, d3 = 0.04, 0.1, 0.02

// branchyEpoch is a star over a shared trunk on starTable: 2->1->0 and
// 3->1->0 share the trunk link 1->0.
func branchyEpoch() *epochobs.Epoch {
	e := &epochobs.Epoch{
		Delivered: make([]int64, 4),
		Expected:  make([]int64, 4),
		Tree:      []topo.NodeID{-1, 0, 1, 1},
	}
	const n = 50000
	e.Expected[1], e.Delivered[1] = n, int64(math.Round(n*(1-dTrunk)))
	e.Expected[2], e.Delivered[2] = n, int64(math.Round(n*(1-d2)*(1-dTrunk)))
	e.Expected[3], e.Delivered[3] = n, int64(math.Round(n*(1-d3)*(1-dTrunk)))
	return e
}

func TestBranchyTree(t *testing.T) {
	cfg := lsq.DefaultConfig()
	lt := starTable()
	got := toMap(lt, lsq.NewEstimator(lt, cfg).Estimate(branchyEpoch()))
	check := func(l topo.Link, drop float64) {
		want := geomle.LossFromDrop(drop, cfg.MaxAttempts)
		if math.Abs(got[l]-want) > 0.03 {
			t.Fatalf("link %v = %v, want ~%v (full: %v)", l, got[l], want, got)
		}
	}
	check(topo.Link{From: 1, To: 0}, dTrunk)
	check(topo.Link{From: 2, To: 1}, d2)
	check(topo.Link{From: 3, To: 1}, d3)
}

// TestStatsReportNNLSIters: Iters counts the blocks the fit pooled, one per
// column whose value was tied to the next column's.
func TestStatsReportNNLSIters(t *testing.T) {
	for _, tc := range []struct {
		name string
		lt   *topo.LinkTable
		e    *epochobs.Epoch
		want int
	}{
		{"lossy chain", chainTable(4), chainEpoch(100000, []float64{0.02, 0.05, 0.1}), 0},
		{"clamped chain", chainTable(3), clampedChainEpoch(), 1},
		{"rowless relay", chainTable(3), rowlessRelayEpoch(), 1},
	} {
		est := lsq.NewEstimator(tc.lt, lsq.DefaultConfig())
		est.Estimate(tc.e)
		if got := est.LastStats().Iters; got != tc.want {
			t.Errorf("%s: %d merges, want %d", tc.name, got, tc.want)
		}
	}
}

// rowlessRelayEpoch is the chain 2->1->0 in which relay 1 sent too few
// packets to have a row: only origin 2's row crosses both links.
func rowlessRelayEpoch() *epochobs.Epoch {
	return &epochobs.Epoch{
		Delivered: []int64{0, 0, 800},
		Expected:  []int64{0, epochobs.MinExpected - 1, 1000},
		Tree:      []topo.NodeID{-1, 0, 1},
	}
}

// TestRowlessNodeTakesParentValue pins the fit's choice where the system
// cannot tell two links apart: a node with no row takes its parent's value,
// so its link carries no loss and the link below it carries the whole
// row's.
func TestRowlessNodeTakesParentValue(t *testing.T) {
	lt := chainTable(3)
	cfg := lsq.DefaultConfig()
	got := toMap(lt, lsq.NewEstimator(lt, cfg).Estimate(rowlessRelayEpoch()))
	if l := (topo.Link{From: 1, To: 0}); got[l] != 0 {
		t.Fatalf("rowless relay's link %v = %v, want 0", l, got[l])
	}
	want := geomle.LossFromDrop(1-math.Exp(math.Log(0.8)), cfg.MaxAttempts) // x = −log 0.8
	if l := (topo.Link{From: 2, To: 1}); got[l] != want {
		t.Fatalf("link %v = %v, want %v", l, got[l], want)
	}
}

// clampedChainEpoch is the chain 2->1->0 in which origin 2 delivers more
// than origin 1, whose only link it crosses: the unconstrained solution
// puts a negative value on 2->1, and NNLS must clamp it to zero.
func clampedChainEpoch() *epochobs.Epoch {
	return &epochobs.Epoch{
		Delivered: []int64{0, 800, 900},
		Expected:  []int64{0, 1000, 1000},
		Tree:      []topo.NodeID{-1, 0, 1},
	}
}

func TestNNLSClampsInfeasible(t *testing.T) {
	lt := chainTable(3)
	est := lsq.NewEstimator(lt, lsq.DefaultConfig())
	got := toMap(lt, est.Estimate(clampedChainEpoch()))
	if l := (topo.Link{From: 2, To: 1}); got[l] != 0 {
		t.Fatalf("link %v = %v, want 0 (clamped)", l, got[l])
	}
	// The trunk takes the least-squares compromise of both rows.
	sys, x := est.Solution()
	trunk := lt.Index(topo.Link{From: 1, To: 0})
	for j, li := range sys.Cols {
		if li == trunk && math.Abs(x[j]-(-math.Log(0.8)-math.Log(0.9))/2) > 1e-6 {
			t.Fatalf("trunk solution %v, want %v", x[j], (-math.Log(0.8)-math.Log(0.9))/2)
		}
	}
}

func TestNNLSZeroMatrix(t *testing.T) {
	// An epoch without rows has an empty system: no solve runs and no
	// link is estimated.
	lt := chainTable(3)
	est := lsq.NewEstimator(lt, lsq.DefaultConfig())
	est.Estimate(chainEpoch(1000, []float64{0.1, 0.1}))
	e := &epochobs.Epoch{Delivered: make([]int64, 3), Expected: make([]int64, 3), Tree: []topo.NodeID{-1, 0, 1}}
	if got := toMap(lt, est.Estimate(e)); len(got) != 0 {
		t.Fatalf("empty system gave %v", got)
	}
	if s := est.LastStats(); s != (lsq.Stats{}) {
		t.Fatalf("empty system reports %+v, want no rows and no merges", s)
	}
	if _, x := est.Solution(); len(x) != 0 {
		t.Fatalf("empty system solved to %v", x)
	}
}

func TestNNLSNonNegative(t *testing.T) {
	// Exact counts over a random tree, with several lossless links: the
	// solution is the per-link truth, zeros included, and never negative.
	const n = 9
	r := rng.New(2)
	lt := completeTable(n)
	e := randomTreeEpoch(r, n, 1)
	truth := []float64{0, 0.05, 0, 0.15, 0.01, 0, 0.2, 0.08, 0} // by child node
	for v := 1; v < n; v++ {
		sum := 0.0
		for u := topo.NodeID(v); u != topo.Sink; u = e.Tree[u] {
			sum += truth[u]
		}
		e.Expected[v] = 10_000_000
		e.Delivered[v] = int64(math.Round(1e7 * math.Exp(-sum)))
	}
	est := lsq.NewEstimator(lt, lsq.DefaultConfig())
	est.Estimate(e)
	sys, x := est.Solution()
	if len(x) != n-1 {
		t.Fatalf("%d columns, want %d", len(x), n-1)
	}
	for j, li := range sys.Cols {
		child := lt.Link(li).From
		if x[j] < 0 || math.Abs(x[j]-truth[child]) > 1e-4 {
			t.Fatalf("link %v: x = %v, want %v", lt.Link(li), x[j], truth[child])
		}
	}
}

// TestEstimateAllocFree: once an estimator has solved the largest system
// of a sequence, solving the sequence again, its system shrinking and
// growing, allocates nothing.
func TestEstimateAllocFree(t *testing.T) {
	lt := topo.Grid(14, 10, 1.5, 14, rng.New(1)).LinkTable()
	full, churned := churnEpochs(lt)
	cut := &epochobs.Epoch{Delivered: full.Delivered, Expected: full.Expected, Tree: append([]topo.NodeID(nil), full.Tree...)}
	cut.Tree[full.Tree[len(full.Tree)-1]] = -1 // a relay's subtree leaves
	empty := &epochobs.Epoch{Delivered: full.Delivered, Expected: make([]int64, lt.Nodes()), Tree: full.Tree}
	est := lsq.NewEstimator(lt, lsq.DefaultConfig())
	est.Estimate(full)
	seq := []*epochobs.Epoch{churned, cut, empty, full, cut, churned, full}
	if allocs := testing.AllocsPerRun(5, func() {
		for _, e := range seq {
			est.Estimate(e)
		}
	}); allocs != 0 {
		t.Fatalf("%v allocations per pass over %d epochs, want 0", allocs, len(seq))
	}
}
