package radio

import (
	"dophy/internal/rng"
	"dophy/internal/sim"
	"dophy/internal/topo"
)

// NodeFailures wraps another Model with node-level crash/recover dynamics:
// while a node is down its radio is silent, so every link touching it has
// PRR 0. Routing is not told anything — it discovers failures exactly as a
// real protocol would, through missing beacons and failed transmissions,
// and the network re-routes around the hole. This is the strongest form of
// "dynamic sensor network" the paper targets, used by experiment F7.
//
// Per-node up/down dwell times are exponential with means MTBF and MTTR;
// the sink never fails. State advances lazily per query, deterministically
// from the seed.
type NodeFailures struct {
	inner Model
	mtbf  sim.Time    // mean time between failures (up dwell)
	mttr  sim.Time    // mean time to repair (down dwell)
	nodes []failState // by NodeID
}

type failState struct {
	down     bool
	nextFlip sim.Time
	r        *rng.Source
}

// NewNodeFailures wraps inner with failures over an n-node network.
func NewNodeFailures(inner Model, n int, mtbf, mttr sim.Time, seed uint64) *NodeFailures {
	if mtbf <= 0 || mttr <= 0 {
		panic("radio: MTBF and MTTR must be positive")
	}
	if n < 1 {
		panic("radio: need at least one node")
	}
	nodes := make([]failState, n)
	for i := range nodes {
		r := rng.New(linkSeed(seed, topo.Link{From: topo.NodeID(i), To: topo.NodeID(i)}))
		nodes[i] = failState{r: r, nextFlip: sim.Time(r.Exp(1 / float64(mtbf)))}
	}
	return &NodeFailures{inner: inner, mtbf: mtbf, mttr: mttr, nodes: nodes}
}

// advance brings node i's state up to time now.
func (m *NodeFailures) advance(i topo.NodeID, now sim.Time) *failState {
	st := &m.nodes[i]
	for st.nextFlip <= now {
		st.down = !st.down
		mean := m.mtbf
		if st.down {
			mean = m.mttr
		}
		st.nextFlip += sim.Time(st.r.Exp(1 / float64(mean)))
	}
	return st
}

// Down reports whether node id is failed at time now. The sink, and any id
// outside the network, reports false always.
func (m *NodeFailures) Down(id topo.NodeID, now sim.Time) bool {
	if id == topo.Sink || id < 0 || int(id) >= len(m.nodes) {
		return false
	}
	return m.advance(id, now).down
}

// PRR implements Model: zero while either endpoint is down.
//
//dophy:hotpath
func (m *NodeFailures) PRR(l topo.Link, now sim.Time) float64 {
	if m.Down(l.From, now) || m.Down(l.To, now) {
		return 0
	}
	return m.inner.PRR(l, now)
}

// DownCount returns how many non-sink nodes are down at time now.
func (m *NodeFailures) DownCount(now sim.Time) int {
	n := 0
	for i := 1; i < len(m.nodes); i++ {
		if m.Down(topo.NodeID(i), now) {
			n++
		}
	}
	return n
}
