package mat

import (
	"math"
	"testing"

	"dophy/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMulVec(t *testing.T) {
	a := NewDense(2, 3)
	// [1 2 3; 4 5 6]
	vals := [][]float64{{1, 2, 3}, {4, 5, 6}}
	for i := range vals {
		for j := range vals[i] {
			a.Set(i, j, vals[i][j])
		}
	}
	got := []float64{7, 7} // MulVecTo overwrites dst
	a.MulVecTo(got, []float64{1, 0, -1})
	if got[0] != -2 || got[1] != -2 {
		t.Fatalf("MulVecTo = %v", got)
	}
	gotT := make([]float64, 3)
	a.TMulVecTo(gotT, []float64{1, 1})
	want := []float64{5, 7, 9}
	for i := range want {
		if gotT[i] != want[i] {
			t.Fatalf("TMulVecTo = %v", gotT)
		}
	}
}

func TestGram(t *testing.T) {
	a := NewDense(3, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, 2)
	a.Set(2, 0, 3)
	a.Set(2, 1, 1)
	g := NewDense(1, 5) // GramInto reshapes and zeroes g
	g.Set(0, 4, 9)
	a.GramInto(g)
	// A^T A = [[10, 3], [3, 5]]
	want := [][]float64{{10, 3}, {3, 5}}
	for i := range want {
		for j := range want[i] {
			if g.At(i, j) != want[i][j] {
				t.Fatalf("Gram = [[%v %v][%v %v]]", g.At(0, 0), g.At(0, 1), g.At(1, 0), g.At(1, 1))
			}
		}
	}
}

func TestNNLSNonNegative(t *testing.T) {
	r := rng.New(2)
	const rows, cols = 30, 6
	a := NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			a.Set(i, j, math.Abs(r.Normal(0, 1)))
		}
	}
	truth := []float64{0.5, 0, 1.5, 0, 0.1, 2}
	b := make([]float64, rows)
	a.MulVecTo(b, truth)
	var s NNLSSolver
	x := s.Solve(a, b, 5000, 1e-12)
	for i, v := range x {
		if v < 0 {
			t.Fatalf("NNLS produced negative x[%d] = %v", i, v)
		}
		if !almostEq(v, truth[i], 0.02) {
			t.Fatalf("x = %v, want %v", x, truth)
		}
	}
}

func TestNNLSClampsInfeasible(t *testing.T) {
	// b pulls x negative; NNLS must return 0 (the constrained optimum).
	a := NewDense(2, 1)
	a.Set(0, 0, 1)
	a.Set(1, 0, 1)
	var s NNLSSolver
	x := s.Solve(a, []float64{-3, -5}, 1000, 1e-12)
	if x[0] != 0 {
		t.Fatalf("x = %v, want [0]", x)
	}
}

func TestNNLSZeroMatrix(t *testing.T) {
	a := NewDense(2, 2)
	var s NNLSSolver
	x := s.Solve(a, []float64{1, 2}, 100, 1e-12)
	if x[0] != 0 || x[1] != 0 {
		t.Fatalf("zero matrix NNLS = %v", x)
	}
	if s.Iters() != 0 {
		t.Fatalf("zero-Gram solve reports %d iterations, want 0", s.Iters())
	}
}

func TestDimensionPanics(t *testing.T) {
	a := NewDense(2, 3)
	for name, fn := range map[string]func(){
		"mulvec":      func() { a.MulVecTo(make([]float64, 2), []float64{1}) },
		"mulvec dst":  func() { a.MulVecTo(make([]float64, 3), []float64{1, 2, 3}) },
		"tmulvec":     func() { a.TMulVecTo(make([]float64, 3), []float64{1}) },
		"tmulvec dst": func() { a.TMulVecTo(make([]float64, 2), []float64{1, 2}) },
		"negdim":      func() { NewDense(-1, 2) },
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

// randIncidence fills an rows x cols 0/1 matrix with density p.
func randIncidence(r *rng.Source, rows, cols int, p float64) *Dense {
	m := NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if r.Bool(p) {
				m.Set(i, j, 1)
			}
		}
	}
	return m
}

// randSymCounts builds an n x n symmetric matrix of small non-negative
// integers, the shape of a path-incidence Gram matrix, with every row and
// column listed in empty zeroed out.
func randSymCounts(r *rng.Source, n int, p float64, empty []int) *Dense {
	g := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if r.Bool(p) {
				v := float64(1 + r.Intn(6))
				g.Set(i, j, v)
				g.Set(j, i, v)
			}
		}
	}
	for _, k := range empty {
		for j := 0; j < n; j++ {
			g.Set(k, j, 0)
			g.Set(j, k, 0)
		}
	}
	return g
}

// FuzzNNLSGradient checks the sparse gradient kernel bitwise against the
// dense product it replaces, over symmetric non-negative integer matrices
// with empty rows and columns and vectors with exact zeros.
func FuzzNNLSGradient(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint8(80), uint8(128))
	f.Add(uint64(2), uint8(1), uint8(255), uint8(0))
	f.Add(uint64(2), uint8(34), uint8(255), uint8(0))
	f.Add(uint64(3), uint8(40), uint8(20), uint8(200))
	f.Add(uint64(4), uint8(7), uint8(0), uint8(255))
	f.Fuzz(func(t *testing.T, seed uint64, size, density, zeros uint8) {
		n := int(size)%48 + 1
		r := rng.New(seed)
		var empty []int
		for k := 0; k < n; k++ {
			if r.Bool(0.15) {
				empty = append(empty, k)
			}
		}
		g := randSymCounts(r, n, float64(density)/255, empty)
		x := make([]float64, n)
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
		var s NNLSSolver
		s.scanGram(g)
		got := make([]float64, n)
		for k := range got {
			got[k] = math.NaN() // the kernel must overwrite every entry
		}
		s.gramMulVec(got, x)
		want := make([]float64, n)
		g.MulVecTo(want, x)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("grad[%d] = %v, dense %v (seed=%d n=%d)", j, got[j], want[j], seed, n)
			}
		}
	})
}

// solveDense is Solve as it was before the sparse gradient kernel: every
// projected-gradient iteration takes the dense product G x. It is the
// reference the production solver must match bitwise, and it returns the
// number of iterations it ran.
func solveDense(a *Dense, b []float64, iters int, tol float64) ([]float64, int) {
	var g Dense
	a.GramInto(&g)
	atb := make([]float64, a.Cols)
	a.TMulVecTo(atb, b)
	lip := 0.0
	for i := 0; i < g.Rows; i++ {
		sum := 0.0
		for j := 0; j < g.Cols; j++ {
			sum += math.Abs(g.At(i, j))
		}
		if sum > lip {
			lip = sum
		}
	}
	x := make([]float64, g.Cols)
	if lip == 0 {
		return x, 0
	}
	step := 1 / lip
	grad := make([]float64, g.Rows)
	it := 0
	for it < iters {
		it++
		g.MulVecTo(grad, x)
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

func TestSolveMatchesDenseReference(t *testing.T) {
	r := rng.New(11)
	var s NNLSSolver // reused across cases, as lsq reuses it across epochs
	clamped, capped := 0, 0
	for c := 0; c < 24; c++ {
		rows, cols := 20+r.Intn(40), 5+r.Intn(30)
		a := randIncidence(r, rows, cols, 0.1+r.Range(0, 0.3))
		b := make([]float64, rows)
		for i := range b {
			// Targets below some rows' neighbours pull their links
			// negative, so part of the solution clamps to zero.
			b[i] = r.Range(-0.5, 2)
		}
		iters := []int{0, 1, 50, 4000}[c%4]

		want, wantIt := solveDense(a, b, iters, 1e-10)
		got := s.Solve(a, b, iters, 1e-10)
		assertBitwise(t, c, got, want, s.Iters(), wantIt)
		for _, v := range got {
			if v == 0 {
				clamped++
			}
		}
		if iters > 0 && wantIt == iters {
			capped++
		}
	}
	// The cases must exercise what the kernel skips and where lsq stops.
	if clamped == 0 || capped == 0 {
		t.Fatalf("%d clamped coordinates, %d capped solves: the cases no longer cover the kernel", clamped, capped)
	}
}

func assertBitwise(t *testing.T, c int, got, want []float64, gotIt, wantIt int) {
	t.Helper()
	if gotIt != wantIt {
		t.Fatalf("case %d: %d iterations, dense reference ran %d", c, gotIt, wantIt)
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("case %d: x[%d] = %v, dense reference %v (must be bitwise)", c, j, got[j], want[j])
		}
	}
}

// treeSystem is the loss-tomography system on a BFS collection tree over a
// side x side 4-neighbour grid with the sink in a corner: one row per non-sink node (its path to the sink), one column per
// tree link (named by its child node). b is set so that the unconstrained
// per-link solution alternates between +0.05 and -0.03 along the BFS order,
// which clamps about half of the 4000-iteration NNLS iterate to zero.
func treeSystem(side int) (a *Dense, b []float64) {
	n := side * side
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	order := []int{0}
	parent[0] = 0
	for h := 0; h < len(order); h++ {
		u := order[h]
		ur, uc := u/side, u%side
		for _, d := range [4][2]int{{-1, 0}, {0, -1}, {0, 1}, {1, 0}} {
			vr, vc := ur+d[0], uc+d[1]
			if vr < 0 || vr >= side || vc < 0 || vc >= side {
				continue
			}
			if v := vr*side + vc; parent[v] < 0 {
				parent[v] = u
				order = append(order, v)
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
	a = NewDense(n-1, n-1)
	b = make([]float64, n-1)
	for v := 1; v < n; v++ {
		for u := v; u != 0; u = parent[u] {
			a.Set(v-1, u-1, 1)
			b[v-1] += truth[u]
		}
	}
	return a, b
}

func BenchmarkSolveTreeSystem(b *testing.B) {
	a, rhs := treeSystem(15)
	var s NNLSSolver
	x := s.Solve(a, rhs, 4000, 1e-10) // grow scratch to the high-water mark
	zeros := 0
	for _, v := range x {
		if v == 0 {
			zeros++
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Solve(a, rhs, 4000, 1e-10)
	}
	b.ReportMetric(float64(zeros)/float64(len(x)), "zero-frac")
	b.ReportMetric(float64(s.Iters()), "iters")
}
