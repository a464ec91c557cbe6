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

// dense is a row-major dense matrix. LSQ once copied each tree-path system
// into one and solved from its dense Gram matrix; these tests keep that
// pipeline as the reference the solver must match bitwise.
type dense struct {
	rows, cols int
	data       []float64
}

func newDense(rows, cols int) *dense {
	if rows < 0 || cols < 0 {
		panic("dense: negative dimensions")
	}
	return &dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

func (m *dense) at(i, j int) float64     { return m.data[i*m.cols+j] }
func (m *dense) set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// mulVecTo computes m x into dst, which must have length rows.
func (m *dense) mulVecTo(dst, x []float64) {
	if len(x) != m.cols || len(dst) != m.rows {
		panic(fmt.Sprintf("dense: mulVecTo %dx%d with x %d, dst %d", m.rows, m.cols, len(x), len(dst)))
	}
	for i := 0; i < m.rows; i++ {
		s := 0.0
		for j, a := range m.data[i*m.cols : (i+1)*m.cols] {
			s += a * x[j]
		}
		dst[i] = s
	}
}

// tMulVecTo adds mᵀ y into dst, which must have length cols; a row whose
// y is zero is skipped.
func (m *dense) tMulVecTo(dst, y []float64) {
	if len(y) != m.rows || len(dst) != m.cols {
		panic(fmt.Sprintf("dense: tMulVecTo %dx%d with y %d, dst %d", m.rows, m.cols, len(y), len(dst)))
	}
	for i, yi := range y {
		if yi == 0 {
			continue
		}
		for j, a := range m.data[i*m.cols : (i+1)*m.cols] {
			dst[j] += a * yi
		}
	}
}

// gram returns mᵀ m: the upper triangle summed row by row of m, then
// mirrored.
func (m *dense) gram() *dense {
	g := newDense(m.cols, m.cols)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for a, ra := range row {
			if ra == 0 {
				continue
			}
			for b := a; b < m.cols; b++ {
				g.data[a*m.cols+b] += ra * row[b]
			}
		}
	}
	for a := 0; a < m.cols; a++ {
		for b := a + 1; b < m.cols; b++ {
			g.set(b, a, g.at(a, b))
		}
	}
	return g
}

// maxRowSum is the largest row sum of |m|.
func (m *dense) maxRowSum() float64 {
	lip := 0.0
	for i := 0; i < m.rows; i++ {
		sum := 0.0
		for _, v := range m.data[i*m.cols : (i+1)*m.cols] {
			sum += math.Abs(v)
		}
		lip = max(lip, sum)
	}
	return lip
}

// target is row r's least-squares target, −log of its delivery ratio, with
// one phantom delivery when nothing arrived so the log stays finite.
func target(sys *epochobs.System, r int) float64 {
	n := sys.Delivered[r] + sys.Lost[r]
	dr := sys.Delivered[r] / n
	if dr <= 0 {
		dr = 0.5 / n
	}
	return -math.Log(dr)
}

// denseSystem returns sys's 0/1 path incidence matrix and its targets.
func denseSystem(sys *epochobs.System) (*dense, []float64) {
	a := newDense(sys.Rows(), len(sys.Cols))
	b := make([]float64, sys.Rows())
	for r := range b {
		b[r] = target(sys, r)
		for _, c := range sys.Path[sys.RowStart[r]:sys.RowStart[r+1]] {
			a.set(r, int(c), 1)
		}
	}
	return a, b
}

// solveDense is the projected-gradient NNLS with dense products: every
// iteration takes G x from the dense Gram matrix. It returns x and the
// iterations it ran.
func solveDense(a *dense, b []float64, iters int, tol float64) ([]float64, int) {
	g := a.gram()
	atb := make([]float64, a.cols)
	a.tMulVecTo(atb, b)
	x := make([]float64, a.cols)
	lip := g.maxRowSum()
	if lip == 0 {
		return x, 0
	}
	step := 1 / lip
	grad := make([]float64, a.cols)
	it := 0
	for it < iters {
		it++
		g.mulVecTo(grad, x)
		moved := 0.0
		for j := range x {
			nx := x[j] - step*(grad[j]-atb[j])
			if nx < 0 {
				nx = 0
			}
			moved += math.Abs(nx - x[j])
			x[j] = nx
		}
		if moved < tol {
			break
		}
	}
	return x, it
}

// denseEstimate is Estimate through the dense reference solve. It returns
// the estimate and the iterations the solve ran.
func denseEstimate(lt *topo.LinkTable, cfg lsq.Config, e *epochobs.Epoch) ([]float64, int) {
	sys := epochobs.NewSystem(lt)
	sys.Build(e)
	out := make([]float64, lt.Len())
	for i := range out {
		out[i] = math.NaN()
	}
	if sys.Rows() == 0 {
		return out, 0
	}
	a, b := denseSystem(sys)
	x, it := solveDense(a, b, cfg.Iters, cfg.Tol)
	for j, li := range sys.Cols {
		out[li] = geomle.LossFromDrop(1-math.Exp(-x[j]), cfg.MaxAttempts)
	}
	return out, it
}

func TestMulVec(t *testing.T) {
	a := newDense(2, 3)
	// [1 2 3; 4 5 6]
	vals := [][]float64{{1, 2, 3}, {4, 5, 6}}
	for i := range vals {
		for j := range vals[i] {
			a.set(i, j, vals[i][j])
		}
	}
	got := []float64{7, 7} // mulVecTo overwrites dst
	a.mulVecTo(got, []float64{1, 0, -1})
	if got[0] != -2 || got[1] != -2 {
		t.Fatalf("mulVecTo = %v", got)
	}
	gotT := make([]float64, 3)
	a.tMulVecTo(gotT, []float64{1, 1})
	want := []float64{5, 7, 9}
	for i := range want {
		if gotT[i] != want[i] {
			t.Fatalf("tMulVecTo = %v", gotT)
		}
	}
}

func TestGram(t *testing.T) {
	a := newDense(3, 2)
	a.set(0, 0, 1)
	a.set(1, 1, 2)
	a.set(2, 0, 3)
	a.set(2, 1, 1)
	g := a.gram()
	// AᵀA = [[10, 3], [3, 5]]
	want := [][]float64{{10, 3}, {3, 5}}
	for i := range want {
		for j := range want[i] {
			if g.at(i, j) != want[i][j] {
				t.Fatalf("gram = [[%v %v][%v %v]]", g.at(0, 0), g.at(0, 1), g.at(1, 0), g.at(1, 1))
			}
		}
	}
	if g.maxRowSum() != 13 {
		t.Fatalf("max row sum = %v, want 13", g.maxRowSum())
	}
}

func TestDimensionPanics(t *testing.T) {
	a := newDense(2, 3)
	for name, fn := range map[string]func(){
		"mulvec":      func() { a.mulVecTo(make([]float64, 2), []float64{1}) },
		"mulvec dst":  func() { a.mulVecTo(make([]float64, 3), []float64{1, 2, 3}) },
		"tmulvec":     func() { a.tMulVecTo(make([]float64, 3), []float64{1}) },
		"tmulvec dst": func() { a.tMulVecTo(make([]float64, 2), []float64{1, 2}) },
		"negdim":      func() { newDense(-1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
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

// FuzzNNLSGradient builds the normal equations of random trees and row
// sets and checks them bitwise against the dense pipeline: Aᵀb, the
// Lipschitz bound, and the sparse G x against the dense AᵀA x for vectors
// with exact zeros and −0.
func FuzzNNLSGradient(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint8(80), uint8(128))
	f.Add(uint64(2), uint8(1), uint8(255), uint8(0))
	f.Add(uint64(2), uint8(34), uint8(255), uint8(0))
	f.Add(uint64(3), uint8(40), uint8(20), uint8(200))
	f.Add(uint64(4), uint8(7), uint8(0), uint8(255))
	f.Fuzz(func(t *testing.T, seed uint64, size, density, zeros uint8) {
		n := int(size)%48 + 2
		r := rng.New(seed)
		lt := completeTable(n)
		est := lsq.NewEstimator(lt, lsq.DefaultConfig())
		sys, atb, lip := est.NormalEquations(randomTreeEpoch(r, n, float64(density)/255))
		a, b := denseSystem(sys)
		g := a.gram()
		if want := g.maxRowSum(); lip != want {
			t.Fatalf("Lipschitz bound %v, dense %v (seed=%d n=%d)", lip, want, seed, n)
		}
		wantAtb := make([]float64, a.cols)
		a.tMulVecTo(wantAtb, b)
		for j := range wantAtb {
			if math.Float64bits(atb[j]) != math.Float64bits(wantAtb[j]) {
				t.Fatalf("Aᵀb[%d] = %v, dense %v (seed=%d n=%d)", j, atb[j], wantAtb[j], seed, n)
			}
		}
		x := make([]float64, a.cols)
		for k := range x {
			switch {
			case r.Bool(float64(zeros) / 255):
				// exact zero, left as is
			case r.Bool(0.05):
				x[k] = math.Copysign(0, -1)
			default:
				x[k] = r.Range(0, 4)
			}
		}
		got := make([]float64, a.cols)
		for k := range got {
			got[k] = math.NaN() // the kernel must overwrite every entry
		}
		est.GramMulVec(got, x)
		want := make([]float64, a.cols)
		g.mulVecTo(want, x)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("grad[%d] = %v, dense %v (seed=%d n=%d)", j, got[j], want[j], seed, n)
			}
		}
	})
}

// treeGrid is a side×side 4-neighbour grid with the sink in a corner and
// one epoch over its breadth-first tree. Every origin expects 10⁵ packets,
// and its delivery ratio puts the unconstrained per-link solution at +0.05
// and −0.03 alternately along the breadth-first order, so the NNLS iterate
// clamps part of its links to zero.
func treeGrid(side int) (*topo.LinkTable, *epochobs.Epoch) {
	lt := topo.Grid(side, 10, 0, 10.5, rng.New(1)).LinkTable()
	n := lt.Nodes()
	e := &epochobs.Epoch{Delivered: make([]int64, n), Expected: make([]int64, n), Tree: benchTree(lt)}
	order := []topo.NodeID{topo.Sink}
	for h := 0; h < len(order); h++ {
		for v := range e.Tree {
			if e.Tree[v] == order[h] {
				order = append(order, topo.NodeID(v))
			}
		}
	}
	truth := make([]float64, n) // per-link value, indexed by child node
	for h, v := range order[1:] {
		truth[v] = 0.05
		if h%2 == 1 {
			truth[v] = -0.03
		}
	}
	for v := 1; v < n; v++ {
		sum := 0.0
		for u := topo.NodeID(v); u != topo.Sink; u = e.Tree[u] {
			sum += truth[u]
		}
		e.Expected[v] = 100000
		e.Delivered[v] = int64(math.Round(100000 * math.Exp(-sum)))
	}
	return lt, e
}

// sameBits fails unless got and want agree bit for bit.
func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d = %v, dense reference %v (must be bitwise)", label, i, got[i], want[i])
		}
	}
}

// TestSolveMatchesDenseReference pins whole solves, estimates and
// iteration counts, against the dense pipeline: on the epochs of simulated
// deployments, one estimator per deployment as the scheme bank keeps it,
// and on the clamping grid under every kind of stop.
func TestSolveMatchesDenseReference(t *testing.T) {
	clamped, capped := 0, 0
	check := func(label string, lt *topo.LinkTable, cfg lsq.Config, est *lsq.Estimator, e *epochobs.Epoch) {
		t.Helper()
		got := est.Estimate(e)
		want, wantIt := denseEstimate(lt, cfg, e)
		if it := est.LastStats().Iters; it != wantIt {
			t.Fatalf("%s: %d iterations, dense reference ran %d", label, it, wantIt)
		}
		sameBits(t, label, got, want)
		_, x := est.Solution()
		for _, v := range x {
			if v == 0 {
				clamped++
			}
		}
		if cfg.Iters > 0 && wantIt == cfg.Iters {
			capped++
		}
	}
	for _, rc := range realEpochs(t) {
		est := lsq.NewEstimator(rc.lt, rc.cfg)
		for k, e := range rc.epochs {
			check(fmt.Sprintf("%s epoch %d", rc.name, k+1), rc.lt, rc.cfg, est, e)
		}
	}
	lt, e := treeGrid(10)
	for _, iters := range []int{0, 1, 50, 4000} {
		cfg := lsq.DefaultConfig()
		cfg.Iters = iters
		check(fmt.Sprintf("tree grid, %d iterations", iters), lt, cfg, lsq.NewEstimator(lt, cfg), e)
	}
	// The cases must exercise what the kernel skips and where lsq stops.
	if clamped == 0 || capped == 0 {
		t.Fatalf("%d clamped coordinates, %d capped solves: the cases no longer cover the kernel", clamped, capped)
	}
}
