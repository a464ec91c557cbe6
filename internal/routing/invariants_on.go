//go:build dophy_invariants

package routing

import (
	"fmt"
	"math"
)

// routeInvariants audits the incremental parent selection after every
// selection: the cached best neighbour must be what a full walk of the
// neighbour table finds, and the cached parent slot must name the parent.
// A violation panics: a stale cache would route along a neighbour the
// protocol no longer ranks best, silently changing every simulated result.
type routeInvariants struct{}

func (routeInvariants) afterSelect(p *Protocol, ns *nodeState) {
	if slot, m := bestNeighbor(ns.neighbors); slot != ns.bestSlot || math.Float64bits(m) != math.Float64bits(ns.bestM) {
		panic(fmt.Sprintf("routing: invariant violated: node %d caches best slot %d (metric %v), a full walk finds slot %d (metric %v)",
			ns.id, ns.bestSlot, ns.bestM, slot, m))
	}
	nbs := p.tp.Neighbors(ns.id)
	switch {
	case ns.parentSlot < 0 && ns.parent == NoParent:
	case ns.parentSlot >= 0 && int(ns.parentSlot) < len(nbs) && nbs[ns.parentSlot] == ns.parent:
	default:
		panic(fmt.Sprintf("routing: invariant violated: node %d has parent %d but parent slot %d",
			ns.id, ns.parent, ns.parentSlot))
	}
}
