// Package lsq is the linear least-squares loss-tomography baseline: the
// classic static-path method that writes each source's end-to-end delivery
// ratio as the product of per-link (per-hop, post-ARQ) success
// probabilities, takes logs, and solves the resulting linear system over the
// assumed routing tree with non-negativity constraints.
//
// With A the system's 0/1 path incidence matrix and b each row's
// −log(delivery ratio), the baseline is min ‖A x − b‖² over x ≥ 0. On a
// tree, y = −A x gives each column the log success probability from it to
// the sink, and x ≥ 0 is exactly y_c ≤ y_next with 0 beyond the last
// column. So the optimum is the isotonic regression of each row's log
// delivery ratio on the column tree, which epochobs.System.Fit computes
// exactly, and x_c = y_next − y_c.
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
}

// DefaultConfig returns the standard settings.
func DefaultConfig() Config {
	return Config{MaxAttempts: 8}
}

// Estimator solves the baseline for successive epochs of one topology,
// reusing its tree-path system, whose scratch the fit uses, the solution
// and the estimate vector itself across calls: Estimate returns a borrowed
// view of estimator-owned scratch, rewritten by the next call. A system has
// at most one column per node, so the solution is sized from the node
// count.
type Estimator struct {
	cfg Config
	sys *epochobs.System

	x     []float64 // per column: −log of its link's success probability
	out   []float64 // the returned estimate: borrowed scratch, rewritten per call
	stats Stats
}

// Stats describes the last Estimate call's system and solve.
type Stats struct {
	Rows  int // rows in the system
	Iters int // blocks the isotonic fit merged
}

// LastStats reports the size and merge count of the most recent Estimate call.
func (est *Estimator) LastStats() Stats { return est.stats }

// NewEstimator validates the configuration and binds it to a link table.
func NewEstimator(lt *topo.LinkTable, cfg Config) *Estimator {
	if cfg.MaxAttempts < 1 {
		panic("lsq: MaxAttempts must be >= 1")
	}
	return &Estimator{
		cfg: cfg,
		sys: epochobs.NewSystem(lt),
		x:   make([]float64, lt.Nodes()),
		out: make([]float64, lt.Len()),
	}
}

// logRatio is a row's least-squares observation: the log of its delivery
// ratio, with one phantom half-packet delivery when nothing arrived so the
// log stays finite, at weight 1.
func logRatio(delivered, lost float64) (value, weight float64) {
	n := delivered + lost
	dr := delivered / n
	if dr <= 0 {
		dr = 0.5 / n
	}
	return math.Log(dr), 1
}

// Estimate runs the baseline over one epoch of sink observations. The
// result is dense, indexed by the link table; NaN marks links not on any
// usable path. The returned slice aliases the estimator's scratch and is
// valid until the next Estimate call; retaining it across epochs requires
// copying it out.
func (est *Estimator) Estimate(e *epochobs.Epoch) []float64 {
	sys := est.sys
	sys.Build(e)
	out := est.out
	for i := range out {
		out[i] = math.NaN()
	}
	y, merges := sys.Fit(0, logRatio)
	est.stats = Stats{Rows: sys.Rows(), Iters: merges}
	x := est.x[:len(y)]
	for j, li := range sys.Cols {
		next := 0.0
		if k := sys.Next[j]; k >= 0 {
			next = y[k]
		}
		x[j] = next - y[j]
		drop := 1 - math.Exp(-x[j]) // per-hop post-ARQ drop probability
		out[li] = geomle.LossFromDrop(drop, est.cfg.MaxAttempts)
	}
	return out
}
