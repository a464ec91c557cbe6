// Package mat is a small dense linear-algebra kit: exactly the operations
// the least-squares tomography baseline needs (normal equations and
// projected-gradient non-negative least squares), implemented from scratch
// on float64 slices.
package mat

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	data       []float64
}

// NewDense allocates a zero matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic("mat: negative dimensions")
	}
	return &Dense{Rows: rows, Cols: cols, data: make([]float64, rows*cols)}
}

// Reshape reconfigures m to rows x cols with every element zero, reusing
// the backing slice when it has capacity — the allocation-free counterpart
// of NewDense for solver scratch that is resized every epoch.
func (m *Dense) Reshape(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic("mat: negative dimensions")
	}
	n := rows * cols
	if cap(m.data) < n {
		m.data = make([]float64, n)
	} else {
		m.data = m.data[:n]
		clear(m.data)
	}
	m.Rows, m.Cols = rows, cols
}

// grow returns s with length n and every element zero, reusing the
// backing array when it is large enough.
func grow[T float64 | int32](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.Cols+j] = v }

// Add increments element (i, j).
func (m *Dense) Add(i, j int, v float64) { m.data[i*m.Cols+j] += v }

// MulVec returns A*x.
func (m *Dense) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch %d vs %d", len(x), m.Cols))
	}
	out := make([]float64, m.Rows)
	m.MulVecTo(out, x)
	return out
}

// MulVecTo computes A*x into dst, which must have length Rows. It lets
// iterative solvers reuse one gradient buffer instead of allocating per
// step.
func (m *Dense) MulVecTo(dst, x []float64) {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("mat: MulVecTo dimension mismatch %d vs %d", len(x), m.Cols))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("mat: MulVecTo dst length %d, want %d", len(dst), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, a := range row {
			s += a * x[j]
		}
		dst[i] = s
	}
}

// TMulVec returns A^T * y.
func (m *Dense) TMulVec(y []float64) []float64 {
	out := make([]float64, m.Cols)
	m.TMulVecTo(out, y)
	return out
}

// TMulVecTo computes A^T * y into dst, which must have length Cols and be
// zeroed by the caller — the allocation-free variant of TMulVec.
func (m *Dense) TMulVecTo(dst, y []float64) {
	if len(y) != m.Rows {
		panic(fmt.Sprintf("mat: TMulVecTo dimension mismatch %d vs %d", len(y), m.Rows))
	}
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("mat: TMulVecTo dst length %d, want %d", len(dst), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.data[i*m.Cols : (i+1)*m.Cols]
		yi := y[i]
		if yi == 0 {
			continue
		}
		for j, a := range row {
			dst[j] += a * yi
		}
	}
}

// Gram returns A^T A (Cols x Cols, symmetric positive semidefinite).
func (m *Dense) Gram() *Dense {
	g := NewDense(m.Cols, m.Cols)
	m.gramInto(g)
	return g
}

// GramInto computes A^T A into g, reshaping it to Cols x Cols and reusing
// its backing storage.
func (m *Dense) GramInto(g *Dense) {
	g.Reshape(m.Cols, m.Cols)
	m.gramInto(g)
}

func (m *Dense) gramInto(g *Dense) {
	for i := 0; i < m.Rows; i++ {
		row := m.data[i*m.Cols : (i+1)*m.Cols]
		for a := 0; a < m.Cols; a++ {
			ra := row[a]
			if ra == 0 {
				continue
			}
			for b := a; b < m.Cols; b++ {
				g.data[a*m.Cols+b] += ra * row[b]
			}
		}
	}
	// Mirror the upper triangle.
	for a := 0; a < m.Cols; a++ {
		for b := a + 1; b < m.Cols; b++ {
			g.data[b*m.Cols+a] = g.data[a*m.Cols+b]
		}
	}
}

// NNLS solves min ||A x - b||^2 subject to x >= 0 by projected gradient
// descent with a step from the Gram matrix's row-sum bound. It converges
// linearly and is robust on the small ill-conditioned systems tomography
// produces. iters bounds the work; tol stops early on stagnation. The
// caller owns the returned slice; per-epoch callers should hold an
// NNLSSolver instead and reuse its scratch.
func NNLS(a *Dense, b []float64, iters int, tol float64) []float64 {
	var s NNLSSolver
	return s.Solve(a, b, iters, tol)
}

// NNLSSolver runs NNLS repeatedly over same-shaped or differently-shaped
// systems, reusing its Gram matrix and vector scratch across Solve calls.
// The zero value is ready to use.
type NNLSSolver struct {
	g     Dense
	x     []float64
	atb   []float64
	grad  []float64
	iters int // projected-gradient iterations the last solve ran

	// G's nonzeros, recorded once per solve for gramMulVec: row k's
	// nonzeros sit at nz[nzStart[k]:nzStart[k+1]] (column indices,
	// ascending) and at the same offsets in nzVal (values). G is
	// symmetric, so these are also column k's row indices and values.
	nzStart []int32
	nz      []int32
	nzVal   []float64
}

// Solve is NNLS with reusable scratch: it forms G = A^T A and A^T b, then
// runs the projected-gradient iteration from x = 0. The returned slice
// aliases the solver's scratch and is valid until the next Solve call.
func (s *NNLSSolver) Solve(a *Dense, b []float64, iters int, tol float64) []float64 {
	a.GramInto(&s.g)
	s.atb = grow(s.atb, a.Cols)
	a.TMulVecTo(s.atb, b)
	atb := s.atb
	n := a.Cols
	lip := s.scanGram(&s.g)
	s.iters = 0
	s.x = grow(s.x, n)
	x := s.x
	if lip == 0 {
		return x // A is zero: any x is optimal, return x = 0
	}
	step := 1 / lip
	s.grad = grow(s.grad, n)
	grad := s.grad
	it := 0
	for it < iters {
		it++
		// grad = G x - A^T b
		s.gramMulVec(grad, x)
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
	s.iters = it
	return x
}

// Iters reports how many projected-gradient iterations the most recent
// solve ran: the solve's iters bound when it stopped at the cap, fewer when
// the iterate stagnated first, 0 when G is zero.
func (s *NNLSSolver) Iters() int { return s.iters }

// scanGram records g's nonzeros for gramMulVec and returns the Lipschitz
// bound of the NNLS gradient: the max row sum of |G|, which is at least
// G's spectral norm. A first pass takes the bound and counts the nonzeros,
// so the pattern scratch grows only to the largest nonzero count seen.
func (s *NNLSSolver) scanGram(g *Dense) float64 {
	n := g.Cols
	lip := 0.0
	nnz := 0
	for i := 0; i < n; i++ {
		sum := 0.0
		for _, v := range g.data[i*n : (i+1)*n] {
			sum += math.Abs(v)
			if v != 0 {
				nnz++
			}
		}
		if sum > lip {
			lip = sum
		}
	}
	s.nzStart = grow(s.nzStart, n+1)
	s.nz = grow(s.nz, nnz)
	s.nzVal = grow(s.nzVal, nnz)
	p := int32(0)
	for i := 0; i < n; i++ {
		for j, v := range g.data[i*n : (i+1)*n] {
			if v != 0 {
				s.nz[p] = int32(j)
				s.nzVal[p] = v
				p++
			}
		}
		s.nzStart[i+1] = p
	}
	return lip
}

// gramMulVec computes grad = G x from the nonzeros scanGram recorded,
// touching only the products of G's nonzeros with x's nonzeros. It is
// bitwise-identical to G.MulVecTo(grad, x) for finite G and x: column k
// is scattered into grad in ascending k, so every grad[j] adds its nonzero
// terms in the dense row sum's order, and every skipped term is an exact
// ±0 whose addition would leave the partial sum unchanged (a sum started
// from +0 never becomes -0, and s + ±0 == s otherwise).
func (s *NNLSSolver) gramMulVec(grad, x []float64) {
	clear(grad)
	for k, xk := range x {
		if xk == 0 {
			continue
		}
		lo, hi := s.nzStart[k], s.nzStart[k+1]
		vals := s.nzVal[lo:hi]
		for i, j := range s.nz[lo:hi] {
			grad[j] += vals[i] * xk
		}
	}
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: Dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm.
func Norm2(a []float64) float64 { return math.Sqrt(Dot(a, a)) }
