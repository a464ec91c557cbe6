// Package routing is a stand-in for the real routing protocol: a node's
// neighbour table falls under the densebound rule, so keying it by NodeID
// is reported like keying link state by Link.
package routing

import "fixture/internal/topo"

type neighborInfo struct {
	linkETX float64
}

// nodeState keys its neighbour table by node id.
type nodeState struct {
	neighbors map[topo.NodeID]*neighborInfo // want "keyed by topo.NodeID"
}

// denseState is the approved shape: slots aligned with the sorted
// neighbour list, found through LinkTable.NeighborIndex.
type denseState struct {
	neighbors []neighborInfo
}
