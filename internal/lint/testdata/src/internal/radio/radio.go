// Package radio is a stand-in for the real radio models, whose link models
// fall under the densebound rule.
package radio

import "fixture/internal/topo"

// Static keys link qualities by link, which densebound rejects here.
type Static struct {
	prr map[topo.Link]float64 // want "keyed by topo.Link"
}

// Dense is the approved shape: one quality per link-table index.
type Dense struct {
	lt  *topo.LinkTable
	prr []float64
}
