// Package routing implements a CTP-like dynamic collection protocol: every
// node continuously selects a forwarding parent towards the sink by
// minimising path ETX (expected transmissions), re-evaluating as link
// estimates and neighbour advertisements change. This is the "dynamic WSN"
// substrate the paper targets — forwarding paths shift over time, which is
// precisely what breaks static-path loss tomography.
//
// Mechanisms, mirroring TinyOS CTP at the level that matters here:
//
//   - Periodic jittered beacons carry the sender's advertised path ETX.
//   - Receivers estimate in-bound beacon reception ratios over a sequence
//     window and seed link-ETX estimates from them.
//   - Data transmissions feed back precise out-bound ETX samples (attempt
//     counts from the ARQ layer), blended by EWMA; failed exchanges
//     contribute a penalty sample.
//   - Parent selection minimises advertised ETX + link ETX with switching
//     hysteresis; data-plane TTL catches transient loops from stale state.
//
// An optional RandomizeParentProb knob re-picks a random admissible parent
// at beacon time, giving experiments a direct, radio-independent control
// over path dynamics (the F3 axis in DESIGN.md).
package routing

import (
	"math"

	"dophy/internal/mac"
	"dophy/internal/radio"
	"dophy/internal/rng"
	"dophy/internal/sim"
	"dophy/internal/topo"
	"dophy/internal/trace"
)

// NoParent marks a node that has not yet acquired a route.
const NoParent topo.NodeID = -1

// Protocol constants every deployment shares.
const (
	beaconPeriod sim.Time = 10   // mean interval between beacons per node
	beaconJitter float64  = 0.25 // uniform +/- fraction of the period
	sampleWindow          = 5    // expected beacons per reception-ratio sample
	maxETXSample float64  = 16   // cap for penalty / low-ratio samples
)

// Config tunes the protocol.
type Config struct {
	AlphaBeacon float64 // EWMA weight of beacon-derived ETX samples
	AlphaData   float64 // EWMA weight of data-derived ETX samples
	Hysteresis  float64 // ETX improvement required to switch parent
	// RandomizeParentProb is the probability, evaluated at each beacon a
	// node sends, that it re-selects a parent uniformly among admissible
	// candidates instead of the best one. 0 disables forced churn.
	RandomizeParentProb float64
	// AdaptiveBeacon enables Trickle-style beacon pacing: each node's
	// interval starts at BeaconMin, doubles while its route is stable (up
	// to BeaconMax) and resets to BeaconMin when its parent changes or its
	// path metric moves by more than TrickleReset. Cuts control overhead
	// dramatically in stable networks while staying responsive to change.
	AdaptiveBeacon bool
	BeaconMin      sim.Time
	BeaconMax      sim.Time
	TrickleReset   float64 // path-ETX delta that resets the interval
}

// BeaconInterval is a node's steady-state mean interval between beacons:
// BeaconMax under adaptive beaconing, the fixed period otherwise.
func (c Config) BeaconInterval() sim.Time {
	if c.AdaptiveBeacon {
		return c.BeaconMax
	}
	return beaconPeriod
}

// DefaultConfig returns settings that behave like a well-tuned collection
// protocol at simulation time scales.
func DefaultConfig() Config {
	return Config{
		AlphaBeacon: 0.3,
		AlphaData:   0.25,
		Hysteresis:  0.5,
	}
}

// neighborInfo is what a node knows about one neighbour.
type neighborInfo struct {
	advertisedETX float64 // path ETX from the neighbour's last beacon
	linkETX       float64 // EWMA out-bound ETX estimate
	lastSeq       int64   // last beacon sequence received
	expected      int     // beacons expected since window start
	received      int     // beacons received since window start
	heard         bool    // at least one beacon received
	hasLinkETX    bool
}

// nodeState is the per-node protocol state.
type nodeState struct {
	id        topo.NodeID
	parent    topo.NodeID
	pathETX   float64 // own advertised metric
	beaconSeq int64
	// neighbors is aligned with tp.Neighbors(id): neighbors[k] describes
	// the k-th neighbour in ascending NodeID order, the slot
	// LinkTable.NeighborIndex returns for the link id->neighbour.
	neighbors []neighborInfo
	// Trickle state (AdaptiveBeacon only).
	interval   sim.Time
	lastAdvETX float64 // advertised metric at the last beacon
	trickleHot bool    // reset requested since last beacon
	// bestSlot and bestM cache the best admissible neighbour: its slot in
	// neighbors (lowest metric, lowest slot on ties; -1 with none) and its
	// metric (+Inf with none). selectParent keeps them current from the one
	// slot each receiveBeacon or OnDataResult changed.
	bestSlot   int32
	parentSlot int32 // parent's slot in neighbors; -1 with NoParent
	bestM      float64
}

// Fabric transports beacons between nodes that may live on different
// shards. When set, a received beacon is handed to the fabric instead of
// being applied synchronously; the fabric must invoke ReceiveBeacon on the
// destination's owning Protocol instance after its cross-shard latency.
type Fabric interface {
	DeliverBeacon(from, to topo.NodeID, seq int64, advertisedETX float64)
}

// ShardHooks configures a Protocol instance for the sharded engine. All
// fields may be zero for a plain sequential instance.
type ShardHooks struct {
	// Owned marks the nodes this instance owns; state exists and beacon
	// processes run only for them. nil means all nodes.
	Owned []bool
	// PerNode gives every node its own RNG stream (indexed by NodeID), so
	// draw sequences are independent of cross-node event interleaving.
	PerNode []*rng.Source
	// Fabric carries beacons across the shard boundary.
	Fabric Fabric
}

// Protocol runs collection routing for one network.
type Protocol struct {
	cfg     Config
	eng     *sim.Engine
	tp      *topo.Topology
	lt      *topo.LinkTable
	model   radio.Model
	r       *rng.Source
	perNode []*rng.Source
	owned   []bool
	fab     Fabric
	rec     *trace.Recorder
	nodes   []*nodeState
	started bool
	// pendingBeacon marks nodes with an extra beacon queued by scheduleNow,
	// keeping at most one in flight per node. The engine hands out no event
	// handle, so this flag is the only record that one is queued; the
	// handler clears it when the beacon fires.
	pendingBeacon []bool
	// beaconFns holds one prebuilt beacon handler per node, so periodic
	// rescheduling does not allocate a fresh closure every beacon.
	beaconFns []sim.Handler
	// beaconNowFns are the prebuilt immediate-beacon handlers used by
	// scheduleNow, for the same reason: data-path trouble triggers one per
	// failed ARQ exchange, squarely on the packet hot path.
	beaconNowFns []sim.Handler
	// candBuf/metricBuf are randomizeParent's candidate scratch, reused
	// across calls so forced churn does not allocate per beacon.
	candBuf   []int32
	metricBuf []float64
	inv       routeInvariants

	BeaconsSent int64 // total beacon transmissions (protocol overhead)
}

// New builds the protocol. rec may be nil.
func New(cfg Config, eng *sim.Engine, tp *topo.Topology, model radio.Model, r *rng.Source, rec *trace.Recorder) *Protocol {
	return NewSharded(cfg, eng, tp, model, r, rec, ShardHooks{})
}

// NewSharded builds a protocol instance for one shard of a partitioned
// simulation: node state is allocated only for owned nodes (a 100k-node
// topology split K ways would otherwise cost K full state tables), draws
// come from per-node streams, and beacons cross the boundary through the
// fabric. With zero hooks it is exactly New.
func NewSharded(cfg Config, eng *sim.Engine, tp *topo.Topology, model radio.Model, r *rng.Source, rec *trace.Recorder, hooks ShardHooks) *Protocol {
	if cfg.RandomizeParentProb < 0 || cfg.RandomizeParentProb > 1 {
		panic("routing: RandomizeParentProb must be in [0,1]")
	}
	if cfg.AdaptiveBeacon {
		if cfg.BeaconMin <= 0 || cfg.BeaconMax < cfg.BeaconMin {
			panic("routing: adaptive beacon needs 0 < BeaconMin <= BeaconMax")
		}
	}
	p := &Protocol{cfg: cfg, eng: eng, tp: tp, lt: tp.LinkTable(), model: model, r: r, rec: rec,
		perNode: hooks.PerNode, owned: hooks.Owned, fab: hooks.Fabric,
		pendingBeacon: make([]bool, tp.N())}
	// One backing array holds every owned node's neighbour slots.
	total := 0
	for i := 0; i < tp.N(); i++ {
		if p.owns(topo.NodeID(i)) {
			total += len(tp.Neighbors(topo.NodeID(i)))
		}
	}
	slots := make([]neighborInfo, total)
	p.nodes = make([]*nodeState, tp.N())
	for i := range p.nodes {
		if !p.owns(topo.NodeID(i)) {
			continue
		}
		deg := len(tp.Neighbors(topo.NodeID(i)))
		p.nodes[i] = &nodeState{
			id:         topo.NodeID(i),
			parent:     NoParent,
			pathETX:    math.Inf(1),
			lastAdvETX: math.Inf(1),
			neighbors:  slots[:deg:deg],
			bestM:      math.Inf(1),
			bestSlot:   -1,
			parentSlot: -1,
		}
		slots = slots[deg:]
	}
	if p.owns(topo.Sink) {
		p.nodes[topo.Sink].pathETX = 0
	}
	return p
}

// owns reports whether this instance holds id's protocol state.
func (p *Protocol) owns(id topo.NodeID) bool { return p.owned == nil || p.owned[id] }

// rng returns the stream id's draws come from: the node's own stream in
// sharded mode, the shared protocol stream otherwise.
func (p *Protocol) rng(id topo.NodeID) *rng.Source {
	if p.perNode != nil {
		return p.perNode[id]
	}
	return p.r
}

// Start schedules the per-node beacon processes. Call once.
func (p *Protocol) Start() {
	if p.started {
		panic("routing: Start called twice")
	}
	p.started = true
	p.beaconFns = make([]sim.Handler, len(p.nodes))
	p.beaconNowFns = make([]sim.Handler, len(p.nodes))
	for i := range p.nodes {
		id := topo.NodeID(i)
		if !p.owns(id) {
			continue
		}
		p.beaconFns[i] = func() { p.beacon(id) }
		p.beaconNowFns[i] = func() {
			p.pendingBeacon[id] = false
			p.beaconOnce(id)
		}
		firstPeriod := beaconPeriod
		if p.cfg.AdaptiveBeacon {
			p.nodes[i].interval = p.cfg.BeaconMin
			firstPeriod = p.cfg.BeaconMin
		}
		// Desynchronise first beacons across the period.
		first := sim.Time(p.rng(id).Float64()) * firstPeriod
		p.eng.Schedule(p.eng.Now()+first, p.beaconFns[i])
	}
}

// jitteredPeriod returns the next beacon delay for ns, advancing its
// Trickle interval when adaptive beaconing is on.
func (p *Protocol) jitteredPeriod(ns *nodeState) sim.Time {
	j := beaconJitter
	base := beaconPeriod
	if p.cfg.AdaptiveBeacon {
		if ns.trickleHot {
			ns.interval = p.cfg.BeaconMin
			ns.trickleHot = false
		} else {
			ns.interval *= 2
			if ns.interval > p.cfg.BeaconMax {
				ns.interval = p.cfg.BeaconMax
			}
		}
		base = ns.interval
	}
	return base * sim.Time(1+p.rng(ns.id).Range(-j, j))
}

// trickleReset asks for ns's beacon interval to snap back to BeaconMin at
// its next scheduling decision (route state changed).
func (p *Protocol) trickleReset(ns *nodeState) {
	if p.cfg.AdaptiveBeacon {
		ns.trickleHot = true
	}
}

// beacon transmits one beacon from id and reschedules.
func (p *Protocol) beacon(id topo.NodeID) {
	ns := p.nodes[id]
	p.beaconOnce(id)
	// Forced churn knob: occasionally re-pick among admissible parents.
	if p.cfg.RandomizeParentProb > 0 && id != topo.Sink && p.rng(id).Bool(p.cfg.RandomizeParentProb) {
		p.randomizeParent(id)
	}
	// Trickle: a metric that moved since the last beacon re-arms fast
	// beaconing so neighbours learn promptly.
	if p.cfg.AdaptiveBeacon {
		delta := ns.pathETX - ns.lastAdvETX
		if delta < 0 {
			delta = -delta
		}
		if delta > p.cfg.TrickleReset && !math.IsInf(ns.lastAdvETX, 1) {
			ns.trickleHot = true
		}
		ns.lastAdvETX = ns.pathETX
	}
	p.eng.After(p.jitteredPeriod(ns), p.beaconFns[id])
}

// receiveBeacon processes a beacon from neighbour 'from' at node 'at'.
func (p *Protocol) receiveBeacon(at, from topo.NodeID, seq int64, advertisedETX float64) {
	ns := p.nodes[at]
	k := p.lt.NeighborIndex(topo.Link{From: at, To: from})
	if k < 0 {
		return // not a neighbour per topology (cannot happen via beacon())
	}
	info := &ns.neighbors[k]
	info.advertisedETX = advertisedETX
	info.heard = true
	if info.lastSeq == 0 {
		info.expected++
	} else {
		gap := int(seq - info.lastSeq)
		if gap < 1 {
			gap = 1
		}
		info.expected += gap
	}
	info.lastSeq = seq
	info.received++
	if info.expected >= sampleWindow {
		ratio := float64(info.received) / float64(info.expected)
		sample := maxETXSample
		if ratio > 0 {
			sample = math.Min(1/ratio, maxETXSample)
		}
		p.updateLinkETX(info, sample, p.cfg.AlphaBeacon)
		info.expected, info.received = 0, 0
	}
	if at != topo.Sink {
		p.selectParent(ns, k)
	}
}

// updateLinkETX blends one ETX sample into info's link estimate.
func (p *Protocol) updateLinkETX(info *neighborInfo, sample, alpha float64) {
	if !info.hasLinkETX {
		info.linkETX = sample
		info.hasLinkETX = true
		return
	}
	info.linkETX = (1-alpha)*info.linkETX + alpha*sample
}

// OnDataResult feeds an ARQ outcome back into the sender's link estimator.
func (p *Protocol) OnDataResult(from, to topo.NodeID, res mac.Result) {
	ns := p.nodes[from]
	k := p.lt.NeighborIndex(topo.Link{From: from, To: to})
	if k < 0 {
		return
	}
	info := &ns.neighbors[k]
	sample := float64(res.Attempts)
	if !res.Delivered {
		sample = maxETXSample
		// Data-path trouble: re-arm fast beaconing (CTP's pull behaviour)
		// so the neighbourhood resynchronises its advertisements quickly.
		p.trickleReset(ns)
		if !p.pendingBeacon[from] {
			p.scheduleNow(from)
		}
	}
	p.updateLinkETX(info, sample, p.cfg.AlphaData)
	if from != topo.Sink {
		p.selectParent(ns, k)
	}
}

// scheduleNow queues an immediate extra beacon for id (at most one pending
// at a time) so route changes propagate without waiting a full interval.
func (p *Protocol) scheduleNow(id topo.NodeID) {
	if !p.cfg.AdaptiveBeacon || !p.started {
		return
	}
	p.eng.After(p.cfg.BeaconMin*sim.Time(0.25*(1+p.rng(id).Float64())), p.beaconNowFns[id])
	p.pendingBeacon[id] = true
}

// beaconOnce transmits a beacon without touching the periodic schedule.
func (p *Protocol) beaconOnce(id topo.NodeID) {
	ns := p.nodes[id]
	ns.beaconSeq++
	p.BeaconsSent++
	now := p.eng.Now()
	adv := ns.pathETX
	r := p.rng(id)
	for _, nb := range p.tp.Neighbors(id) {
		l := topo.Link{From: id, To: nb}
		received := r.Bool(p.model.PRR(l, now))
		if p.rec != nil {
			p.rec.Beacon(l, received)
		}
		if received {
			if p.fab != nil {
				p.fab.DeliverBeacon(id, nb, ns.beaconSeq, adv)
			} else {
				p.receiveBeacon(nb, id, ns.beaconSeq, adv)
			}
		}
	}
}

// ReceiveBeacon applies a beacon that arrived over the fabric at node 'at'.
// It must run on the engine owning 'at', at the beacon's arrival time.
func (p *Protocol) ReceiveBeacon(at, from topo.NodeID, seq int64, advertisedETX float64) {
	p.receiveBeacon(at, from, seq, advertisedETX)
}

// metric returns the routing metric of the neighbour info describes, and
// whether that neighbour is admissible.
func metric(info *neighborInfo) (float64, bool) {
	if !info.heard {
		return 0, false
	}
	if math.IsInf(info.advertisedETX, 1) {
		return 0, false // neighbour has no route itself
	}
	link := info.linkETX
	if !info.hasLinkETX {
		// No estimate yet: optimistic default so bootstrap can proceed.
		link = 1
	}
	return info.advertisedETX + link, true
}

// selectParent re-evaluates ns's parent with hysteresis after neighbour
// slot k changed. Among equal metrics the lowest NodeID wins; slots ascend
// with NodeID, so that is the lowest slot, whatever order slots change in.
//
// Only k's metric moved, so the cached best stays valid unless k was the
// best and got worse; only then are all neighbours walked again.
//
// No gradient constraint applies: never choosing a parent whose own
// advertised metric is not strictly below ours would deadlock bootstrap
// (our metric starts at +inf). The chosen path metric improves on the
// neighbour's advertisement by the link cost by construction, and
// stale-state loops are caught by the data-plane TTL.
func (p *Protocol) selectParent(ns *nodeState, k int) {
	m, ok := metric(&ns.neighbors[k])
	if slot := int32(k); slot == ns.bestSlot {
		if ok && m <= ns.bestM {
			ns.bestM = m
		} else {
			ns.bestSlot, ns.bestM = bestNeighbor(ns.neighbors)
		}
	} else if ok && (m < ns.bestM || (m == ns.bestM && (ns.bestSlot < 0 || slot < ns.bestSlot))) {
		ns.bestSlot, ns.bestM = slot, m
	}
	if ns.bestSlot >= 0 {
		best, slot := ns.bestM, ns.bestSlot
		// Keep the current parent unless the best is clearly better.
		if cur := ns.parentSlot; cur >= 0 && cur != slot {
			if curM, curOK := metric(&ns.neighbors[cur]); curOK && best > curM-p.cfg.Hysteresis {
				best, slot = curM, cur
			}
		}
		p.adoptParent(ns, slot, best)
	}
	p.inv.afterSelect(p, ns)
}

// bestNeighbor walks every slot and returns the best admissible one (lowest
// metric, lowest slot on ties) with its metric, or -1 and +Inf with none.
func bestNeighbor(nbs []neighborInfo) (int32, float64) {
	bestSlot, best := int32(-1), math.Inf(1)
	for k := range nbs {
		if m, ok := metric(&nbs[k]); ok && (m < best || (m == best && bestSlot < 0)) {
			bestSlot, best = int32(k), m
		}
	}
	return bestSlot, best
}

// randomizeParent picks a uniformly random admissible candidate.
func (p *Protocol) randomizeParent(id topo.NodeID) {
	ns := p.nodes[id]
	cands := p.candBuf[:0]
	metrics := p.metricBuf[:0]
	// Candidates come out in ascending slot order, hence ascending NodeID,
	// so the draw below is deterministic with no post-sort.
	for k := range ns.neighbors {
		if m, ok := metric(&ns.neighbors[k]); ok && m < maxETXSample*4 {
			cands = append(cands, int32(k))
			metrics = append(metrics, m)
		}
	}
	p.candBuf, p.metricBuf = cands, metrics
	if len(cands) == 0 {
		return
	}
	k := p.rng(id).Intn(len(cands))
	p.adoptParent(ns, cands[k], metrics[k])
	p.inv.afterSelect(p, ns)
}

// adoptParent makes the neighbour in slot ns's forwarding parent,
// advertising pathETX.
func (p *Protocol) adoptParent(ns *nodeState, slot int32, pathETX float64) {
	if ns.parentSlot != slot {
		if ns.parentSlot >= 0 && p.rec != nil {
			p.rec.ParentChanges++
		}
		ns.parentSlot = slot
		ns.parent = p.tp.Neighbors(ns.id)[slot]
		p.trickleReset(ns)
	}
	ns.pathETX = pathETX
}

// Parent returns id's current forwarding parent.
func (p *Protocol) Parent(id topo.NodeID) (topo.NodeID, bool) {
	pa := p.nodes[id].parent
	return pa, pa != NoParent
}

// PathETX returns id's advertised path metric (inf before bootstrap).
func (p *Protocol) PathETX(id topo.NodeID) float64 { return p.nodes[id].pathETX }

// Routed reports how many owned nodes (excluding the sink) currently have
// parents. On a sharded instance this counts only the shard's own nodes;
// sum across shards for the network-wide figure.
func (p *Protocol) Routed() int {
	n := 0
	for i, ns := range p.nodes {
		if ns != nil && i != int(topo.Sink) && ns.parent != NoParent {
			n++
		}
	}
	return n
}
