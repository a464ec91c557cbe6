//go:build dophy_invariants

package routing

import (
	"fmt"
	"strings"
	"testing"

	"dophy/internal/mac"
	"dophy/internal/rng"
	"dophy/internal/topo"
)

// TestSelectionAuditCatchesCorruption corrupts one node's selection cache
// directly and checks the audit trips on the node's next selection, which
// is fed a delivered exchange on a neighbour that is neither the cached
// best nor the parent, so no full walk repairs the cache first.
func TestSelectionAuditCatchesCorruption(t *testing.T) {
	const node = topo.NodeID(12) // centre of the 5x5 grid
	for _, tc := range []struct {
		name    string
		corrupt func(p *Protocol, ns *nodeState)
	}{
		// The cached metric drifts from the best neighbour's real metric.
		{"best metric", func(_ *Protocol, ns *nodeState) { ns.bestM -= 0.25 }},
		// The cache ranks another slot best.
		{"best slot", func(_ *Protocol, ns *nodeState) { ns.bestSlot = int32(len(ns.neighbors)) - 1 }},
		// The parent slot no longer names the parent.
		{"parent slot", func(p *Protocol, ns *nodeState) {
			nbs := p.tp.Neighbors(ns.id)
			ns.parent = nbs[(int(ns.parentSlot)+1)%len(nbs)]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, _, tp := bootstrap(t, topo.Grid(5, 10, 0, 15, rng.New(3)), 0, 1)
			ns := p.nodes[node]
			last := int32(len(ns.neighbors)) - 1
			if ns.bestSlot < 0 || ns.bestSlot == last || ns.parentSlot != ns.bestSlot {
				t.Fatalf("setup: node %d best slot %d of %d, parent slot %d; want a routed node whose parent is its best, not in the last slot",
					node, ns.bestSlot, last+1, ns.parentSlot)
			}
			var other topo.NodeID = NoParent
			for k, nb := range tp.Neighbors(node) {
				if int32(k) != ns.bestSlot && int32(k) != last {
					other = nb
				}
			}
			tc.corrupt(p, ns)
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("selection audit missed the corruption")
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, "invariant violated") {
					t.Fatalf("panic %q is not the audit's", msg)
				}
			}()
			p.OnDataResult(node, other, mac.Result{Attempts: 3, Delivered: true})
		})
	}
}
