//go:build !dophy_invariants

package sim

// InvariantsEnabled reports whether this binary carries the runtime
// invariant checks (build with -tags dophy_invariants to turn them on).
const InvariantsEnabled = false

// engineInvariants is the no-op variant: zero-size, empty methods, so the
// default build's hot paths compile to exactly the pre-hook code.
type engineInvariants struct{}

func (engineInvariants) checkQueue(*Engine) {}
