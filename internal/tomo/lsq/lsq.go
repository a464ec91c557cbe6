// Package lsq is the linear least-squares loss-tomography baseline: the
// classic static-path method that writes each source's end-to-end delivery
// ratio as the product of per-link (per-hop, post-ARQ) success
// probabilities, takes logs, and solves the resulting linear system over the
// assumed routing tree with non-negativity constraints.
//
// Its two structural weaknesses are exactly what the paper exploits:
//
//  1. It sees only end-to-end delivery, and with ARQ almost everything is
//     delivered, so per-hop drop probabilities are tiny and the implied
//     per-attempt loss is poorly identified.
//  2. It assumes the epoch's paths were static; under dynamic parent
//     selection the attribution of loss to links smears.
package lsq

import (
	"math"

	"dophy/internal/tomo/epochobs"
	"dophy/internal/tomo/geomle"
	"dophy/internal/topo"
)

// Config tunes the baseline.
type Config struct {
	// MaxAttempts is the MAC budget, used to convert per-hop drop
	// probability into per-attempt loss for comparison with Dophy.
	MaxAttempts int
	// Iters/Tol drive the NNLS solver.
	Iters int
	Tol   float64
}

// DefaultConfig returns solver settings adequate for network-sized systems.
func DefaultConfig() Config {
	return Config{MaxAttempts: 8, Iters: 4000, Tol: 1e-10}
}

// Estimator solves the baseline for successive epochs of one topology,
// reusing its tree-path system, its solver scratch and the estimate vector
// itself across calls: Estimate returns a borrowed view of estimator-owned
// scratch, rewritten by the next call. A system has at most one column per
// node, so the per-column scratch is sized once; only G's nonzeros grow, to
// the most any epoch has had.
type Estimator struct {
	cfg Config
	sys *epochobs.System

	// Per column: the rows through it (G's diagonal), the next column
	// toward the sink (-1 at the sink), Aᵀb, the iterate and its gradient.
	count []float64
	next  []int32
	atb   []float64
	x     []float64
	grad  []float64

	// G = AᵀA's nonzeros: row k's sit at nz[start[k]:start[k+1]] (column
	// indices) and at the same offsets in val (values). G is symmetric, so
	// these are also column k's row indices and values.
	start []int32
	nz    []int32
	val   []float64

	out   []float64 // the returned estimate: borrowed scratch, rewritten per call
	stats Stats
}

// Stats describes the last Estimate call's system and solve.
type Stats struct {
	Rows  int // rows in the system
	Iters int // NNLS projected-gradient iterations run
}

// LastStats reports the size and iteration count of the most recent Estimate call.
func (est *Estimator) LastStats() Stats { return est.stats }

// NewEstimator validates the configuration and binds it to a link table.
func NewEstimator(lt *topo.LinkTable, cfg Config) *Estimator {
	if cfg.MaxAttempts < 1 {
		panic("lsq: MaxAttempts must be >= 1")
	}
	n := lt.Nodes()
	return &Estimator{
		cfg:   cfg,
		sys:   epochobs.NewSystem(lt),
		count: make([]float64, n),
		next:  make([]int32, n),
		atb:   make([]float64, n),
		x:     make([]float64, n),
		grad:  make([]float64, n),
		start: make([]int32, n+1),
		out:   make([]float64, lt.Len()),
	}
}

// Estimate runs the baseline over one epoch of sink observations. The
// result is dense, indexed by the link table; NaN marks links not on any
// usable path. The returned slice aliases the estimator's scratch and is
// valid until the next Estimate call; retaining it across epochs requires
// copying it out.
func (est *Estimator) Estimate(e *epochobs.Epoch) []float64 {
	est.sys.Build(e)
	out := est.out
	for i := range out {
		out[i] = math.NaN()
	}
	est.stats = Stats{Rows: est.sys.Rows()}
	if est.stats.Rows == 0 {
		return out
	}
	x := est.solve(est.normalEquations())
	for j, li := range est.sys.Cols {
		drop := 1 - math.Exp(-x[j]) // per-hop post-ARQ drop probability
		out[li] = geomle.LossFromDrop(drop, est.cfg.MaxAttempts)
	}
	return out
}

// normalEquations forms Aᵀb and G = AᵀA's nonzeros for the system's path
// incidence matrix A and b_i = −log(row i's delivery ratio), and returns
// the Lipschitz bound of the NNLS gradient: the max row sum of G, which is
// at least G's spectral norm.
//
// A column is a tree link, so every row through column j continues along
// the same chain of columns to the sink. Columns j and k therefore share a
// row exactly when one lies on the other's chain, and G[j][k] is then the
// number of rows through the lower of the two. All of G is small integers,
// exact in float64, and Aᵀb adds each row's term in ascending row order.
func (est *Estimator) normalEquations() float64 {
	sys := est.sys
	n := len(sys.Cols)
	count, next, atb := est.count[:n], est.next[:n], est.atb[:n]
	clear(count)
	clear(atb)
	for i := range sys.Rows() {
		total := sys.Delivered[i] + sys.Lost[i]
		dr := sys.Delivered[i] / total
		if dr <= 0 {
			// Nothing arrived: unbounded loss; clamp to a small ratio so
			// the log stays finite (one phantom delivery).
			dr = 0.5 / total
		}
		b := -math.Log(dr)
		path := sys.Path[sys.RowStart[i]:sys.RowStart[i+1]]
		for t, c := range path {
			count[c]++
			atb[c] += b
			next[c] = -1
			if t+1 < len(path) {
				next[c] = path[t+1]
			}
		}
	}

	// Row j of G holds its diagonal, one entry per column on its chain and
	// one per column whose chain passes through it. Count them, then fill
	// each row advancing start[j] as its cursor, which leaves start[j] at
	// row j's end until the shift restores the starts.
	start := est.start[:n+1]
	clear(start)
	for j := range n {
		start[j+1]++
		for a := next[j]; a >= 0; a = next[a] {
			start[j+1]++
			start[a+1]++
		}
	}
	for j := range n {
		start[j+1] += start[j]
	}
	if nnz := int(start[n]); cap(est.nz) < nnz {
		est.nz = make([]int32, nnz)
		est.val = make([]float64, nnz)
	}
	nz, val := est.nz, est.val
	put := func(row, col int32, v float64) {
		nz[start[row]], val[start[row]] = col, v
		start[row]++
	}
	for j := range int32(n) {
		put(j, j, count[j])
		for a := next[j]; a >= 0; a = next[a] {
			put(j, a, count[j])
			put(a, j, count[j])
		}
	}
	copy(start[1:], start[:n])
	start[0] = 0

	lip := 0.0
	for j := range n {
		sum := 0.0
		for _, v := range val[start[j]:start[j+1]] {
			sum += v
		}
		lip = max(lip, sum)
	}
	return lip
}

// solve runs projected gradient descent on the normal equations from
// x = 0 with step 1/lip, for at most Iters iterations and until an
// iteration moves x by less than Tol in total. The returned slice aliases
// the estimator's scratch.
func (est *Estimator) solve(lip float64) []float64 {
	n := len(est.sys.Cols)
	x, grad, atb := est.x[:n], est.grad[:n], est.atb[:n]
	clear(x)
	step := 1 / lip
	it := 0
	for it < est.cfg.Iters {
		it++
		// grad = G x - Aᵀb
		est.gramMulVec(grad, x)
		moved := 0.0
		for j := range x {
			nx := x[j] - step*(grad[j]-atb[j])
			if nx < 0 {
				nx = 0
			}
			moved += math.Abs(nx - x[j])
			x[j] = nx
		}
		if moved < est.cfg.Tol {
			break
		}
	}
	est.stats.Iters = it
	return x
}

// gramMulVec computes grad = G x from the nonzeros normalEquations
// recorded, touching only the products of G's nonzeros with x's nonzeros.
// It is bitwise-identical to the dense row sums of G x for finite x: column
// k is scattered into grad in ascending k, so every grad[j] adds its
// nonzero terms in the dense row sum's order, and every skipped term is an
// exact ±0 whose addition would leave the partial sum unchanged (a sum
// started from +0 never becomes -0, and s + ±0 == s otherwise).
func (est *Estimator) gramMulVec(grad, x []float64) {
	clear(grad)
	for k, xk := range x {
		if xk == 0 {
			continue
		}
		lo, hi := est.start[k], est.start[k+1]
		vals := est.val[lo:hi]
		for i, j := range est.nz[lo:hi] {
			grad[j] += vals[i] * xk
		}
	}
}
