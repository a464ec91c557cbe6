//go:build !dophy_invariants

package collect

import "dophy/internal/topo"

// netInvariants is the no-op variant; see invariants_on.go for the checks.
type netInvariants struct{}

// journeyLife is empty: lifecycle states are tracked only under the tag.
type journeyLife struct{}

func (netInvariants) onFinish(*Network, *PacketJourney) {}
func (netInvariants) onRelease(*Network, topo.NodeID)   {}
func (netInvariants) onRecycle(*PacketJourney)          {}
func (netInvariants) onReuse(*PacketJourney)            {}
