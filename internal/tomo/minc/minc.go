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
	MaxAttempts int   // MAC budget, for per-attempt conversion
	MinExpected int64 // skip origins with fewer expected packets
	MaxIters    int
	Tol         float64 // max per-link change to declare convergence
}

// DefaultConfig returns standard EM settings.
func DefaultConfig() Config {
	return Config{MaxAttempts: 8, MinExpected: 5, MaxIters: 500, Tol: 1e-9}
}

// Estimator runs tree EM for successive epochs of one topology, reusing
// its path and EM scratch — and the estimate vector itself — across calls:
// Estimate returns a borrowed view of estimator-owned scratch, rewritten by
// the next call.
type Estimator struct {
	cfg Config
	lt  *topo.LinkTable

	// colOf maps table index -> compact EM slot (-1 = not on any usable
	// path this epoch); cols is the inverse, in first-encounter order over
	// origins — the slot order the EM sweep has always used.
	colOf    []int32        // indexed by topo.LinkIdx; holds compact slots
	cols     []topo.LinkIdx // compact slot -> table index
	idxBuf   []topo.LinkIdx // one source's table indices, reused per origin
	pathBuf  []int32        // all sources' compact slots, flattened
	srcStart []int32        // pathBuf offset per source, plus a final sentinel
	deliv    []float64
	lost     []float64

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
	est := &Estimator{cfg: cfg, lt: lt, colOf: make([]int32, lt.Len())}
	for i := range est.colOf {
		est.colOf[i] = -1
	}
	return est
}

// resize returns s with length n and every element zeroed, reusing the
// backing array when it is large enough.
func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		//dophy:allow hotpathalloc -- scratch grows to the epoch's high-water mark, then is reused
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Estimate runs tree EM over one epoch. The result is dense, indexed by
// the link table; NaN marks links not on any usable path. The returned
// slice aliases the estimator's scratch and is valid until the next
// Estimate call; retaining it across epochs requires copying it out.
//
//dophy:hotpath
func (est *Estimator) Estimate(e *epochobs.Epoch) []float64 {
	cfg := est.cfg
	for _, c := range est.cols {
		est.colOf[c] = -1
	}
	est.cols = est.cols[:0]
	est.pathBuf = est.pathBuf[:0]
	est.srcStart = est.srcStart[:0]
	est.deliv = est.deliv[:0]
	est.lost = est.lost[:0]

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
		buf, ok := e.AppendPathIndices(est.lt, id, est.idxBuf[:0])
		est.idxBuf = buf
		if !ok {
			continue
		}
		// Translate the table indices into compact EM slots, assigned in
		// first-encounter order. idxBuf holds LinkIdx values, pathBuf holds
		// slots: the two integer domains never share a buffer.
		for _, li := range est.idxBuf {
			if est.colOf[li] < 0 {
				est.colOf[li] = int32(len(est.cols))
				est.cols = append(est.cols, li)
			}
			est.pathBuf = append(est.pathBuf, est.colOf[li])
		}
		d := float64(e.Delivered[origin])
		if d > float64(n) {
			d = float64(n)
		}
		est.srcStart = append(est.srcStart, int32(mark))
		est.deliv = append(est.deliv, d)
		est.lost = append(est.lost, float64(n)-d)
	}
	est.srcStart = append(est.srcStart, int32(len(est.pathBuf)))

	est.out = resize(est.out, est.lt.Len())
	out := est.out
	for i := range out {
		out[i] = math.NaN()
	}
	nsrc := len(est.deliv)
	nlinks := len(est.cols)
	est.stats = Stats{Rows: nsrc}
	if nsrc == 0 || nlinks == 0 {
		return out
	}

	est.drop = resize(est.drop, nlinks)
	est.deaths = resize(est.deaths, nlinks)
	est.traversals = resize(est.traversals, nlinks)
	drop, deaths, traversals := est.drop, est.deaths, est.traversals
	// Initialise drops uniformly from the aggregate loss rate.
	var totalExp, totalLost float64
	for s := 0; s < nsrc; s++ {
		totalExp += est.deliv[s] + est.lost[s]
		totalLost += est.lost[s]
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
		for i := range deaths {
			deaths[i] = 0
			traversals[i] = 0
		}
		for s := 0; s < nsrc; s++ {
			path := est.pathBuf[est.srcStart[s]:est.srcStart[s+1]]
			// Path delivery probability S_k = prod(1 - d_j).
			pathDeliver := 1.0
			for _, li := range path {
				pathDeliver *= 1 - drop[li]
			}
			pathLoss := 1 - pathDeliver
			// Delivered packets were offered to every link on the path.
			if est.deliv[s] > 0 {
				for _, li := range path {
					traversals[li] += est.deliv[s]
				}
			}
			if est.lost[s] > 0 && pathLoss > 1e-15 {
				// surv tracks S_{i-1}, the probability of surviving all
				// links before the current one.
				surv := 1.0
				for _, li := range path {
					// P(died exactly at l_i | lost) = S_{i-1} d_i / L.
					deaths[li] += est.lost[s] * surv * drop[li] / pathLoss
					// P(offered to l_i | lost) = (S_{i-1} - S_k) / L:
					// the packet survived the prefix and died at or after
					// this link.
					traversals[li] += est.lost[s] * (surv - pathDeliver) / pathLoss
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
	for j, li := range est.cols {
		out[li] = geomle.LossFromDrop(drop[j], cfg.MaxAttempts)
	}
	est.stats.Iters = itersRun
	return out
}
