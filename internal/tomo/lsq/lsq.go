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

	"dophy/internal/mat"
	"dophy/internal/tomo/epochobs"
	"dophy/internal/tomo/geomle"
	"dophy/internal/topo"
)

// Config tunes the baseline.
type Config struct {
	// MaxAttempts is the MAC budget, used to convert per-hop drop
	// probability into per-attempt loss for comparison with Dophy.
	MaxAttempts int
	// MinExpected skips origins with fewer expected packets in the epoch.
	MinExpected int64
	// Iters/Tol drive the NNLS solver.
	Iters int
	Tol   float64
}

// DefaultConfig returns solver settings adequate for network-sized systems.
func DefaultConfig() Config {
	return Config{MaxAttempts: 8, MinExpected: 5, Iters: 4000, Tol: 1e-10}
}

// Estimator solves the baseline for successive epochs of one topology,
// reusing its row/column scratch, system matrix, NNLS workspace and the
// estimate vector itself across calls: Estimate returns a borrowed view of
// estimator-owned scratch, rewritten by the next call.
type Estimator struct {
	cfg Config
	lt  *topo.LinkTable

	a    mat.Dense      // system matrix scratch, reshaped per epoch
	nnls mat.NNLSSolver // solver scratch

	// colOf maps table index -> compact solver column (-1 = not on any
	// usable path this epoch); cols is the inverse, in first-encounter
	// order over origins — the column order the NNLS solve has always used.
	colOf    []int32        // indexed by topo.LinkIdx; holds compact columns
	cols     []topo.LinkIdx // compact column -> table index
	pathBuf  []topo.LinkIdx // all rows' link indices, flattened
	rowStart []int32        // pathBuf offset per row, plus a final sentinel
	b        []float64
	out      []float64 // the returned estimate: borrowed scratch, rewritten per call
	stats    Stats
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
	est := &Estimator{cfg: cfg, lt: lt, colOf: make([]int32, lt.Len())}
	for i := range est.colOf {
		est.colOf[i] = -1
	}
	return est
}

// Estimate runs the baseline over one epoch of sink observations. The
// result is dense, indexed by the link table; NaN marks links not on any
// usable path. The returned slice aliases the estimator's scratch and is
// valid until the next Estimate call; retaining it across epochs requires
// copying it out.
//
//dophy:hotpath
func (est *Estimator) Estimate(e *epochobs.Epoch) []float64 {
	cfg := est.cfg
	for _, c := range est.cols {
		est.colOf[c] = -1
	}
	est.cols = est.cols[:0]
	est.pathBuf = est.pathBuf[:0]
	est.rowStart = est.rowStart[:0]
	est.b = est.b[:0]

	// Gather usable origins and the link set their tree paths cover.
	for origin := range e.Delivered {
		id := topo.NodeID(origin)
		if id == topo.Sink {
			continue
		}
		n := e.Expected[origin]
		if n < cfg.MinExpected {
			continue
		}
		mark := len(est.pathBuf)
		buf, ok := e.AppendPathIndices(est.lt, id, est.pathBuf)
		est.pathBuf = buf
		if !ok {
			continue
		}
		dr := float64(e.Delivered[origin]) / float64(n)
		if dr <= 0 {
			// Nothing arrived: unbounded loss; clamp to a small ratio so
			// the log stays finite (one phantom delivery).
			dr = 0.5 / float64(n)
		}
		if dr > 1 {
			dr = 1
		}
		est.rowStart = append(est.rowStart, int32(mark))
		est.b = append(est.b, -math.Log(dr))
		for _, li := range est.pathBuf[mark:] {
			if est.colOf[li] < 0 {
				est.colOf[li] = int32(len(est.cols))
				est.cols = append(est.cols, li)
			}
		}
	}
	est.rowStart = append(est.rowStart, int32(len(est.pathBuf)))

	est.out = resizeFloats(est.out, est.lt.Len())
	out := est.out
	for i := range out {
		out[i] = math.NaN()
	}
	rows := len(est.b)
	est.stats = Stats{Rows: rows}
	if rows == 0 || len(est.cols) == 0 {
		return out
	}
	est.a.Reshape(rows, len(est.cols))
	a := &est.a
	for i := 0; i < rows; i++ {
		for _, li := range est.pathBuf[est.rowStart[i]:est.rowStart[i+1]] {
			a.Set(i, int(est.colOf[li]), 1)
		}
	}
	x := est.nnls.Solve(a, est.b, cfg.Iters, cfg.Tol)
	est.stats.Iters = est.nnls.Iters()
	for j, li := range est.cols {
		drop := 1 - math.Exp(-x[j]) // per-hop post-ARQ drop probability
		out[li] = geomle.LossFromDrop(drop, cfg.MaxAttempts)
	}
	return out
}

// resizeFloats returns s with length n and every element zeroed, reusing
// the backing array when it is large enough.
func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		//dophy:allow hotpathalloc -- scratch grows to the epoch's high-water mark, then is reused
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}
