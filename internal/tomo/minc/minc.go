// Package minc is the tree-structured maximum-likelihood loss-tomography
// baseline in the lineage of MINC (Cáceres, Duffield, Horowitz, Towsley):
// given a static routing tree and per-source end-to-end delivery counts, it
// estimates per-link (per-hop, post-ARQ) drop probabilities by
// expectation–maximisation, exploiting that sources sharing tree links share
// loss.
//
// E-step: a lost packet from source s died on exactly one link of s's path;
// the posterior probability it died on link l is the chance it survived all
// links before l times the drop probability of l, normalised over the path.
// M-step: each link's drop probability is its expected deaths over its
// expected traversals. This is the textbook EM for serial-link loss and
// converges monotonically in likelihood.
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

// Config tunes the EM.
type Config struct {
	MaxAttempts int // MAC budget, for per-attempt conversion
	MaxIters    int
	Tol         float64 // max per-link change to declare convergence
}

// DefaultConfig returns standard EM settings.
func DefaultConfig() Config {
	return Config{MaxAttempts: 8, MaxIters: 500, Tol: 1e-9}
}

// Estimator runs tree EM for successive epochs of one topology, reusing
// its tree-path system and EM scratch — and the estimate vector itself —
// across calls: Estimate returns a borrowed view of estimator-owned
// scratch, rewritten by the next call. A system has at most one column per
// node, so the per-link scratch is sized once, from the node count.
type Estimator struct {
	cfg Config
	sys *epochobs.System

	drop       []float64
	deaths     []float64
	traversals []float64

	out   []float64 // the returned estimate: borrowed scratch, rewritten per call
	stats Stats
}

// Stats describes the last Estimate call's system and solve.
type Stats struct {
	Rows  int // sources in the system
	Iters int // EM sweeps run
}

// LastStats reports the size and sweep count of the most recent Estimate call.
func (est *Estimator) LastStats() Stats { return est.stats }

// NewEstimator validates the configuration and binds it to a link table.
func NewEstimator(lt *topo.LinkTable, cfg Config) *Estimator {
	if cfg.MaxAttempts < 1 {
		panic("minc: MaxAttempts must be >= 1")
	}
	n := lt.Nodes()
	return &Estimator{
		cfg:        cfg,
		sys:        epochobs.NewSystem(lt),
		drop:       make([]float64, n),
		deaths:     make([]float64, n),
		traversals: make([]float64, n),
		out:        make([]float64, lt.Len()),
	}
}

// Estimate runs tree EM over one epoch. The result is dense, indexed by
// the link table; NaN marks links not on any usable path. The returned
// slice aliases the estimator's scratch and is valid until the next
// Estimate call; retaining it across epochs requires copying it out.
func (est *Estimator) Estimate(e *epochobs.Epoch) []float64 {
	cfg := est.cfg
	sys := est.sys
	sys.Build(e)
	path, rowStart, deliv, lost := sys.Path, sys.RowStart, sys.Delivered, sys.Lost

	out := est.out
	for i := range out {
		out[i] = math.NaN()
	}
	nsrc := sys.Rows()
	est.stats = Stats{Rows: nsrc}
	if nsrc == 0 {
		return out
	}
	nlinks := len(sys.Cols)

	drop, deaths, traversals := est.drop[:nlinks], est.deaths[:nlinks], est.traversals[:nlinks]
	// Initialise drops uniformly from the aggregate loss rate.
	var totalExp, totalLost float64
	for s := 0; s < nsrc; s++ {
		totalExp += deliv[s] + lost[s]
		totalLost += lost[s]
	}
	init := totalLost / math.Max(totalExp, 1) / 2
	if init <= 0 {
		init = 1e-4
	}
	for i := range drop {
		drop[i] = init
	}

	itersRun := 0
	for iter := 0; iter < cfg.MaxIters; iter++ {
		itersRun++
		clear(deaths)
		clear(traversals)
		for s := 0; s < nsrc; s++ {
			row := path[rowStart[s]:rowStart[s+1]]
			// Path delivery probability S_k = prod(1 - d_j).
			pathDeliver := 1.0
			for _, li := range row {
				pathDeliver *= 1 - drop[li]
			}
			pathLoss := 1 - pathDeliver
			// Delivered packets were offered to every link on the path.
			if deliv[s] > 0 {
				for _, li := range row {
					traversals[li] += deliv[s]
				}
			}
			if lost[s] > 0 && pathLoss > 1e-15 {
				// surv tracks S_{i-1}, the probability of surviving all
				// links before the current one.
				surv := 1.0
				for _, li := range row {
					// P(died exactly at l_i | lost) = S_{i-1} d_i / L.
					deaths[li] += lost[s] * surv * drop[li] / pathLoss
					// P(offered to l_i | lost) = (S_{i-1} - S_k) / L:
					// the packet survived the prefix and died at or after
					// this link.
					traversals[li] += lost[s] * (surv - pathDeliver) / pathLoss
					surv *= 1 - drop[li]
				}
			}
		}
		maxDelta := 0.0
		for i := range drop {
			if traversals[i] <= 0 {
				continue
			}
			nd := deaths[i] / traversals[i]
			if nd < 0 {
				nd = 0
			}
			if nd > 1-1e-9 {
				nd = 1 - 1e-9
			}
			if d := math.Abs(nd - drop[i]); d > maxDelta {
				maxDelta = d
			}
			drop[i] = nd
		}
		if maxDelta < cfg.Tol {
			break
		}
	}
	for j, li := range sys.Cols {
		out[li] = geomle.LossFromDrop(drop[j], cfg.MaxAttempts)
	}
	est.stats.Iters = itersRun
	return out
}
