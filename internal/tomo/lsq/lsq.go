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
	// Iters/Tol drive the NNLS solver.
	Iters int
	Tol   float64
}

// DefaultConfig returns solver settings adequate for network-sized systems.
func DefaultConfig() Config {
	return Config{MaxAttempts: 8, Iters: 4000, Tol: 1e-10}
}

// Estimator solves the baseline for successive epochs of one topology,
// reusing its tree-path system, system matrix, NNLS workspace and the
// estimate vector itself across calls: Estimate returns a borrowed view of
// estimator-owned scratch, rewritten by the next call.
type Estimator struct {
	cfg Config
	lt  *topo.LinkTable
	sys *epochobs.System

	a     mat.Dense      // system matrix scratch, reshaped per epoch
	nnls  mat.NNLSSolver // solver scratch
	b     []float64      // per-row -log(delivery ratio)
	out   []float64      // the returned estimate: borrowed scratch, rewritten per call
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
	return &Estimator{cfg: cfg, lt: lt, sys: epochobs.NewSystem(lt), b: make([]float64, 0, lt.Nodes())}
}

// Estimate runs the baseline over one epoch of sink observations. The
// result is dense, indexed by the link table; NaN marks links not on any
// usable path. The returned slice aliases the estimator's scratch and is
// valid until the next Estimate call; retaining it across epochs requires
// copying it out.
func (est *Estimator) Estimate(e *epochobs.Epoch) []float64 {
	cfg := est.cfg
	sys := est.sys
	sys.Build(e)

	est.out = resizeFloats(est.out, est.lt.Len())
	out := est.out
	for i := range out {
		out[i] = math.NaN()
	}
	rows := sys.Rows()
	est.stats = Stats{Rows: rows}
	if rows == 0 {
		return out
	}
	est.b = est.b[:0]
	est.a.Reshape(rows, len(sys.Cols))
	a := &est.a
	for i := 0; i < rows; i++ {
		n := sys.Delivered[i] + sys.Lost[i]
		dr := sys.Delivered[i] / n
		if dr <= 0 {
			// Nothing arrived: unbounded loss; clamp to a small ratio so
			// the log stays finite (one phantom delivery).
			dr = 0.5 / n
		}
		est.b = append(est.b, -math.Log(dr))
		for _, c := range sys.Path[sys.RowStart[i]:sys.RowStart[i+1]] {
			a.Set(i, int(c), 1)
		}
	}
	x := est.nnls.Solve(a, est.b, cfg.Iters, cfg.Tol)
	est.stats.Iters = est.nnls.Iters()
	for j, li := range sys.Cols {
		drop := 1 - math.Exp(-x[j]) // per-hop post-ARQ drop probability
		out[li] = geomle.LossFromDrop(drop, cfg.MaxAttempts)
	}
	return out
}

// resizeFloats returns s with length n and every element zeroed, reusing
// the backing array when it is large enough.
func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}
