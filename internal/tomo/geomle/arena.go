package geomle

import "dophy/internal/topo"

// Arena is a dense pool of Obs accumulators indexed by an external link
// table (see topo.LinkTable). All Exact histograms share one flat backing
// array, so a whole epoch of per-link state is two allocations for the
// lifetime of an estimator instead of one map entry plus one slice per
// touched link per epoch. An Obs with Total() == 0 means "no observations
// on that link" — the dense replacement for a missing map key.
//
// A reused arena starts each epoch with Reset; accumulators are handed out
// only after that first wipe.
type Arena struct {
	obs     []Obs
	backing []float64
}

// NewArena returns an arena of n observation accumulators with bins exact
// histogram slots each.
func NewArena(n, bins int) *Arena {
	a := &Arena{
		obs:     make([]Obs, n),
		backing: make([]float64, n*bins),
	}
	for i := range a.obs {
		a.obs[i].Exact = a.backing[i*bins : (i+1)*bins : (i+1)*bins]
	}
	return a
}

// Len returns the number of accumulators.
func (a *Arena) Len() int { return len(a.obs) }

// At returns the accumulator at link-table index i. The pointer aliases the
// arena's backing storage, but deliberately with no invalidation: the
// pointer stays valid across Reset (only the counts it sees are wiped).
func (a *Arena) At(i topo.LinkIdx) *Obs { return &a.obs[i] }

// Reset zeroes every accumulator in place, keeping the backing storage.
func (a *Arena) Reset() {
	clear(a.backing)
	for i := range a.obs {
		a.obs[i].Censored = 0
	}
}

// Clear zeroes one accumulator in place — the dense equivalent of deleting
// a map entry (used when exponential forgetting evaporates a link's
// evidence entirely).
func (o *Obs) Clear() {
	clear(o.Exact)
	o.Censored = 0
}

// Estimates is the per-link estimate pass every arena-backed scheme runs at
// an epoch's end. In link-table order it calls fn for each accumulator that
// has observations, at least minSamples of them, and an MLE under max
// attempts m, with that MLE p of the success probability and the
// observation count rounded to the nearest integer. Links it skips have no
// estimate this epoch.
func (a *Arena) Estimates(m int, minSamples int64, fn func(i topo.LinkIdx, obs *Obs, p float64, samples int64)) {
	for i := range a.obs {
		obs := &a.obs[i]
		total := obs.Total()
		if total == 0 || total < float64(minSamples) {
			continue
		}
		p, err := obs.EstimateP(m)
		if err != nil {
			continue
		}
		fn(topo.LinkIdx(i), obs, p, int64(total+0.5))
	}
}
