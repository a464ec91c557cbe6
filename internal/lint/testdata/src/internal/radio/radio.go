// Package radio is a stand-in for the real radio models; the uniform-loss
// constructor carries a valrange contract on its loss argument, and the
// link models fall under the densebound rule.
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

// NewStaticUniformLoss builds a model where every link drops with
// probability loss; loss must lie in [0, 1].
func NewStaticUniformLoss(nodes int, loss float64) float64 {
	return loss * float64(nodes)
}
