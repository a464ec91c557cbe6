package minc_test

import (
	"fmt"
	"math"
	"testing"

	"dophy/internal/rng"
	"dophy/internal/tomo/epochobs"
	"dophy/internal/tomo/geomle"
	"dophy/internal/tomo/minc"
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

func chainEpoch(n int64, drops []float64) *epochobs.Epoch {
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

func TestEMRecoversChainDrops(t *testing.T) {
	drops := []float64{0.03, 0.08, 0.15}
	e := chainEpoch(100000, drops)
	cfg := minc.DefaultConfig()
	lt := chainTable(4)
	got := toMap(lt, minc.NewEstimator(lt, cfg).Estimate(e))
	if len(got) != 3 {
		t.Fatalf("estimated %d links: %v", len(got), got)
	}
	for i, d := range drops {
		l := topo.Link{From: topo.NodeID(i + 1), To: topo.NodeID(i)}
		want := geomle.LossFromDrop(d, cfg.MaxAttempts)
		if math.Abs(got[l]-want) > 0.03 {
			t.Fatalf("link %v loss = %v, want ~%v", l, got[l], want)
		}
	}
}

// Per-hop drop probabilities of branchyEpoch's links.
const dTrunk, d2, d3 = 0.05, 0.12, 0.01

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

func TestEMBranchyTree(t *testing.T) {
	cfg := minc.DefaultConfig()
	lt := starTable()
	got := toMap(lt, minc.NewEstimator(lt, cfg).Estimate(branchyEpoch()))
	check := func(l topo.Link, drop float64) {
		want := geomle.LossFromDrop(drop, cfg.MaxAttempts)
		if math.Abs(got[l]-want) > 0.04 {
			t.Fatalf("link %v = %v, want ~%v (full: %v)", l, got[l], want, got)
		}
	}
	check(topo.Link{From: 1, To: 0}, dTrunk)
	check(topo.Link{From: 2, To: 1}, d2)
	check(topo.Link{From: 3, To: 1}, d3)
}

func TestPerfectDelivery(t *testing.T) {
	e := chainEpoch(1000, []float64{0, 0})
	lt := chainTable(3)
	got := toMap(lt, minc.NewEstimator(lt, minc.DefaultConfig()).Estimate(e))
	for l, loss := range got {
		if loss > 0.01 {
			t.Fatalf("lossless link %v = %v", l, loss)
		}
	}
}

func TestSkipsUnderSampled(t *testing.T) {
	e := chainEpoch(2, []float64{0.1})
	lt := chainTable(2)
	if got := toMap(lt, minc.NewEstimator(lt, minc.DefaultConfig()).Estimate(e)); len(got) != 0 {
		t.Fatalf("under-sampled epoch estimated: %v", got)
	}
}

func TestEmptyEpoch(t *testing.T) {
	e := &epochobs.Epoch{Delivered: make([]int64, 2), Expected: make([]int64, 2), Tree: []topo.NodeID{-1, -1}}
	lt := chainTable(2)
	if got := toMap(lt, minc.NewEstimator(lt, minc.DefaultConfig()).Estimate(e)); len(got) != 0 {
		t.Fatalf("empty epoch estimated: %v", got)
	}
}

func TestDeliveredClampedToExpected(t *testing.T) {
	e := chainEpoch(100, []float64{0.1})
	e.Delivered[1] = 150 // reordering artefact
	lt := chainTable(2)
	got := toMap(lt, minc.NewEstimator(lt, minc.DefaultConfig()).Estimate(e))
	l := topo.Link{From: 1, To: 0}
	if got[l] < 0 || got[l] > 1 || math.IsNaN(got[l]) {
		t.Fatalf("clamped estimate = %v", got[l])
	}
}

func TestPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MaxAttempts 0 accepted")
		}
	}()
	minc.NewEstimator(chainTable(2), minc.Config{MaxAttempts: 0})
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
// compact slot order changes.
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
	lt := chainTable(3)
	est := minc.NewEstimator(lt, minc.DefaultConfig())
	// Estimate returns borrowed scratch: copy out before the next call.
	first := append([]float64(nil), est.Estimate(chainEpoch(100000, []float64{0.0, 0.3}))...)
	est.Estimate(chainEpoch(1000, []float64{0.2, 0.2})) // interleaved epoch
	sameEstimates(t, lt, "chain", est.Estimate(chainEpoch(100000, []float64{0.0, 0.3})), first)

	// A row leaving and re-entering (an origin dropping below MinExpected
	// and recovering) reshapes the system and reorders its slots: every
	// epoch must still match a fresh estimator.
	lt = topo.Grid(14, 10, 1.5, 14, rng.New(1)).LinkTable()
	full, churned := churnEpochs(lt)
	wantFull := minc.NewEstimator(lt, minc.DefaultConfig()).Estimate(full)
	wantChurned := minc.NewEstimator(lt, minc.DefaultConfig()).Estimate(churned)
	est = minc.NewEstimator(lt, minc.DefaultConfig())
	for k, e := range []*epochobs.Epoch{full, churned, full, churned, full} {
		want := wantFull
		if e == churned {
			want = wantChurned
		}
		sameEstimates(t, lt, fmt.Sprintf("churn epoch %d", k), est.Estimate(e), want)
	}
}

func TestEMConvergesFromLossyStart(t *testing.T) {
	// All loss on the far link; the fit must not smear it onto the trunk.
	e := chainEpoch(100000, []float64{0.0, 0.3})
	cfg := minc.DefaultConfig()
	lt := chainTable(3)
	got := toMap(lt, minc.NewEstimator(lt, cfg).Estimate(e))
	trunk := got[topo.Link{From: 1, To: 0}]
	far := got[topo.Link{From: 2, To: 1}]
	if far < trunk {
		t.Fatalf("the fit attributed loss to the wrong link: trunk=%v far=%v", trunk, far)
	}
	wantFar := geomle.LossFromDrop(0.3, cfg.MaxAttempts)
	if math.Abs(far-wantFar) > 0.05 {
		t.Fatalf("far link = %v, want ~%v", far, wantFar)
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
	est := minc.NewEstimator(lt, minc.DefaultConfig())
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

// TestRowlessNodeTakesParentValue pins the fit's choice where the system
// cannot tell two links apart: relay 1 sent too few packets to have a row,
// so it takes its parent's (the sink's) delivery probability, its link
// carries no loss, and the link below it carries all of origin 2's.
func TestRowlessNodeTakesParentValue(t *testing.T) {
	e := &epochobs.Epoch{
		Delivered: []int64{0, 0, 800},
		Expected:  []int64{0, epochobs.MinExpected - 1, 1000},
		Tree:      []topo.NodeID{-1, 0, 1},
	}
	lt := chainTable(3)
	cfg := minc.DefaultConfig()
	got := toMap(lt, minc.NewEstimator(lt, cfg).Estimate(e))
	if l := (topo.Link{From: 1, To: 0}); got[l] != 0 {
		t.Fatalf("rowless relay's link %v = %v, want 0", l, got[l])
	}
	if l, want := (topo.Link{From: 2, To: 1}), geomle.LossFromDrop(1-0.8, cfg.MaxAttempts); got[l] != want {
		t.Fatalf("link %v = %v, want %v", l, got[l], want)
	}
}

// TestDeadNextLinkReadsDropZero pins the other free choice: when nothing
// gets past a link's successor (p_next = 0), the link's own drop is 0/0,
// and it reads as drop 0, while the dead link reads as loss 1.
func TestDeadNextLinkReadsDropZero(t *testing.T) {
	e := &epochobs.Epoch{
		Delivered: []int64{0, 0, 0},
		Expected:  []int64{0, 100, 100},
		Tree:      []topo.NodeID{-1, 0, 1},
	}
	lt := chainTable(3)
	got := toMap(lt, minc.NewEstimator(lt, minc.DefaultConfig()).Estimate(e))
	if l := (topo.Link{From: 1, To: 0}); got[l] != 1 {
		t.Fatalf("dead link %v = %v, want 1", l, got[l])
	}
	if l := (topo.Link{From: 2, To: 1}); got[l] != 0 {
		t.Fatalf("link %v behind a dead link = %v, want 0", l, got[l])
	}
}
