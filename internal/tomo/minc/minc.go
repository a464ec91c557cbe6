// Package minc is the tree-structured maximum-likelihood loss-tomography
// baseline in the lineage of MINC (Cáceres, Duffield, Horowitz, Towsley):
// given a static routing tree and per-source end-to-end delivery counts, it
// estimates per-link (per-hop, post-ARQ) drop probabilities, exploiting
// that sources sharing tree links share loss.
//
// Write p_c for the chance a packet entering column c's link reaches the
// sink: the product of the success probabilities from c to the sink. A
// source's delivered count is binomial in its first column's p, and the
// model's only constraint is p_c ≤ p_next ≤ 1 along the tree. The
// maximum-likelihood p under that order is the weighted isotonic
// regression of each source's delivery ratio d/n with weight n (Robertson,
// Wright & Dykstra 1988, Thm 1.5.2), which epochobs.System.Fit computes
// exactly; the link's drop probability is then 1 − p_c/p_next. This is the
// fixed point that the textbook EM for serial-link loss iterates toward.
//
// Like the LSQ baseline it assumes the epoch's paths were static and sees
// only post-ARQ outcomes, so it inherits both weaknesses the paper targets.
package minc

import (
	"math"

	"dophy/internal/tomo/epochobs"
	"dophy/internal/tomo/geomle"
	"dophy/internal/topo"
)

// Config tunes the baseline.
type Config struct {
	MaxAttempts int // MAC budget, for per-attempt conversion
}

// DefaultConfig returns the standard settings.
func DefaultConfig() Config {
	return Config{MaxAttempts: 8}
}

// Estimator runs the tree MLE for successive epochs of one topology,
// reusing its tree-path system, whose scratch the fit uses, the per-column
// drops and the estimate vector itself across calls: Estimate returns a
// borrowed view of estimator-owned scratch, rewritten by the next call. A
// system has at most one column per node, so the drops are sized from the
// node count.
type Estimator struct {
	cfg Config
	sys *epochobs.System

	drop  []float64 // per column: its link's per-hop drop probability
	out   []float64 // the returned estimate: borrowed scratch, rewritten per call
	stats Stats
}

// Stats describes the last Estimate call's system and solve.
type Stats struct {
	Rows  int // sources in the system
	Iters int // blocks the isotonic fit merged
}

// LastStats reports the size and merge count of the most recent Estimate call.
func (est *Estimator) LastStats() Stats { return est.stats }

// NewEstimator validates the configuration and binds it to a link table.
func NewEstimator(lt *topo.LinkTable, cfg Config) *Estimator {
	if cfg.MaxAttempts < 1 {
		panic("minc: MaxAttempts must be >= 1")
	}
	return &Estimator{
		cfg:  cfg,
		sys:  epochobs.NewSystem(lt),
		drop: make([]float64, lt.Nodes()),
		out:  make([]float64, lt.Len()),
	}
}

// deliveryRatio is a row's binomial observation: its delivery ratio,
// weighted by the packets it was expected to send.
func deliveryRatio(delivered, lost float64) (value, weight float64) {
	n := delivered + lost
	return delivered / n, n
}

// Estimate computes the tree MLE for one epoch. The result is dense,
// indexed by the link table; NaN marks links not on any usable path. The
// returned slice aliases the estimator's scratch and is valid until the
// next Estimate call; retaining it across epochs requires copying it out.
func (est *Estimator) Estimate(e *epochobs.Epoch) []float64 {
	sys := est.sys
	sys.Build(e)
	out := est.out
	for i := range out {
		out[i] = math.NaN()
	}
	p, merges := sys.Fit(1, deliveryRatio)
	est.stats = Stats{Rows: sys.Rows(), Iters: merges}
	drop := est.drop[:len(p)]
	for j, li := range sys.Cols {
		next := 1.0
		if k := sys.Next[j]; k >= 0 {
			next = p[k]
		}
		// When no packet entering the next link reaches the sink, this
		// link's drop is 0/0: read it as lossless.
		drop[j] = 0
		if next > 0 {
			drop[j] = 1 - p[j]/next
		}
		out[li] = geomle.LossFromDrop(drop[j], est.cfg.MaxAttempts)
	}
	return out
}
