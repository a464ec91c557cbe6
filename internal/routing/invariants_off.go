//go:build !dophy_invariants

package routing

// routeInvariants is the no-op variant: zero-size, empty methods, so the
// default build's selection path compiles to exactly the unaudited code.
type routeInvariants struct{}

func (routeInvariants) afterSelect(*Protocol, *nodeState) {}
