package experiment

import (
	"fmt"
	"math"

	"dophy/internal/collect"
	"dophy/internal/mac"
	"dophy/internal/rng"
	"dophy/internal/routing"
	"dophy/internal/sim"
	"dophy/internal/sim/shard"
	"dophy/internal/topo"
	"dophy/internal/trace"
)

// ShardSpec parameterises a sharded run of a Scenario.
//
// A sharded run is not the same simulation as experiment.Run: beacons and
// data hops travel with explicit latency (the fabric) instead of being
// applied synchronously, so cross-shard messages always arrive at least one
// lookahead window in the future. The window is the scenario's data-plane
// latency floor, HopDelay+TxTime, which is also every beacon's latency.
// What IS guaranteed is that the run is byte-identical at every shard
// count, including Shards == 1 — that case executes the very same event
// sequence and lookahead windows on a single engine with no worker
// goroutine and serves as the sequential reference.
type ShardSpec struct {
	// Shards is the number of spatial partitions (= worker cores).
	Shards int
}

// DefaultShardSpec returns a spec over the given shard count. Which
// schemes the run builds is the scenario's (Scenario.Schemes), as for Run.
func DefaultShardSpec(shards int) ShardSpec {
	return ShardSpec{Shards: shards}
}

// ShardStats reports how the partitioned run executed.
type ShardStats struct {
	Shards    int
	Lookahead sim.Time
	CutLinks  int    // directed links crossing a shard boundary
	Links     int    // total directed links
	Windows   uint64 // parallel windows executed
	Exchanged uint64 // cross-shard messages delivered at barriers
	// Events holds each shard's processed-event count, indexed by shard.
	Events []uint64
}

// Imbalance is the largest shard's event count over the smallest's: 1 when
// the partition balanced the run's events exactly.
func (st ShardStats) Imbalance() float64 {
	lo, hi := st.Events[0], st.Events[0]
	for _, n := range st.Events {
		lo, hi = min(lo, n), max(hi, n)
	}
	return float64(hi) / float64(lo)
}

// delivery is one fabric message, carried by value to the receiver's
// shard: a beacon receipt (j == nil), or a packet arriving at ends.to.
type delivery struct {
	ends ends
	seq  int64
	adv  float64
	// j is an in-flight journey; the sending shard may not touch it again.
	j *collect.PacketJourney
}

// ends is a message's receiver and sender, as int32 so that a delivery is
// four words, which Go keeps in registers on its way into a pooled carrier
// (DESIGN.md, "Fabric messages", has the profile).
type ends struct{ to, from int32 }

// ShardedSession is the deployment on the sharded engine: one complete
// deployment split across sp.Shards engines, with every built scheme fed
// the exact same journey sequence regardless of the shard count.
//
// Per-shard instances of the mac/routing/collect stack own disjoint node
// sets; all their RNG draws come from per-node streams (rng.Derive), so no
// draw order depends on how nodes interleave across shards. Journeys
// completed inside a window are parked in per-shard buffers and flushed at
// the window barrier in (Completed, Origin, Seq) order — a key shard
// numbering never enters — then handed to the scheme bank's sink stage,
// whose single goroutine feeds them in that order while the workers run the
// next window. Windows partition virtual time, so the concatenation of
// per-window flushes is itself globally sorted and identical at any K.
//
// The session is also the fabric (collect.Fabric and routing.Fabric) of
// every shard's stack: a beacon or a data hop leaves as a delivery sent
// from its sender's shard, and the shard engine lands it on the receiver's
// shard through that shard's own event pool.
type ShardedSession struct {
	deployment
	lookahead sim.Time
	coord     *shard.Engine[delivery] // the deployment's engine; windowing happens inside it
	cutLinks  int
	// bufs holds the journeys completed since the last flush, per shard,
	// until the flush hands them to the sink stage, which recycles them.
	bufs   [][]*collect.PacketJourney
	fmerge []*collect.PacketJourney // flush merge scratch, cleared before flush returns
}

// NewShardedSession partitions the scenario's topology, builds one
// mac/routing/collect stack per shard, attaches dophy and the scheme groups
// sc.Schemes selects, runs the routing warmup and starts data generation.
func NewShardedSession(sc Scenario, sp ShardSpec) *ShardedSession {
	if sp.Shards < 1 {
		panic(fmt.Sprintf("experiment: %d shards", sp.Shards))
	}
	if sc.Collect.QueueCap > 0 {
		// Contention queues chain transmissions back to back, so a node's
		// release and an incoming arrival systematically land on the same
		// timestamp — and at a full queue their order decides a drop. That
		// order depends on the shard layout; only the zero-contention
		// abstraction (QueueCap 0) is shard-invariant.
		panic("experiment: bounded forwarding queues (QueueCap > 0) are incompatible with sharded runs")
	}
	// Beacons and data hops both travel at least HopDelay+TxTime, so that
	// floor is the conservative lookahead window.
	lookahead := sc.Collect.HopDelay + sc.Collect.TxTime
	if !(lookahead > 0) {
		panic(fmt.Sprintf("experiment: HopDelay+TxTime %v must be positive for sharded runs", lookahead))
	}

	tp, model, root := sc.Deploy()
	if tp.N() > math.MaxInt32 {
		panic(fmt.Sprintf("experiment: %d nodes do not fit a delivery's int32 ids", tp.N()))
	}
	lt := tp.LinkTable()
	// One stream per node, derived before any per-shard construction so the
	// streams are identical at every shard count.
	streams := rng.NewStreams(root.Uint64(), tp.N())

	owner := tp.Partition(sp.Shards, loadWeights(sc, tp))
	_, cut := lt.CrossShard(owner)
	s := &ShardedSession{lookahead: lookahead, cutLinks: cut, bufs: make([][]*collect.PacketJourney, sp.Shards)}
	s.coord = shard.New(shard.Config{Shards: sp.Shards, Lookahead: lookahead, Nodes: tp.N()}, s.arrive)
	s.deployment = newDeployment(sc, tp, s.coord, owner, sp.Shards)
	for k := range s.nws {
		id := topo.ShardID(k)
		owned := make([]bool, tp.N())
		for i := range owned {
			owned[i] = owner[i] == id
		}
		if k > 0 && sc.Radio.failures() {
			// A failure overlay advances a node's up/down state for
			// whichever shard queries it (a link's PRR reads both
			// endpoints), so each shard gets its own replica. Every replica
			// draws node i's flips from the same per-node stream and each
			// shard queries in non-decreasing time, so the replicas agree at
			// every K. Base models stay shared: each link's state is
			// advanced only by its sender's shard.
			model = sc.Radio.Build(tp, sc.Seed^radioSeedMix)
		}
		sub := s.coord.Sub(id)
		// Same-shard beacons land exactly one lookahead after they are sent.
		sub.Lane(lookahead)
		rec := trace.NewRecorder(lt)
		arq := mac.New(sc.Mac, model, root.Split(), rec)
		arq.UsePerNodeRNG(streams)
		proto := routing.NewSharded(sc.Routing, sub, tp, model, root.Split(), rec,
			routing.ShardHooks{Owned: owned, PerNode: streams, Fabric: s})
		nw := collect.NewSharded(sc.Collect, sub, tp, arq, proto, root.Split(), rec,
			collect.ShardHooks{Owned: owned, PerNode: streams, Fabric: s})
		nw.Subscribe(func(j *collect.PacketJourney) { s.bufferJourney(id, j) })
		s.recs[k], s.protos[k], s.nws[k] = rec, proto, nw
	}

	s.bank = newSchemeBank(sc, tp, &s.deployment)
	// Handing journeys to the sink at every barrier (rather than at epoch
	// ends) bounds journey buffering to one window's worth of completions.
	s.coord.OnBarrier(s.flush)
	s.start()
	return s
}

// treeHopEvents is how many events a packet costs per hop of its depth in
// the BFS hop tree, in units where a neighbour's beacons cost one per
// BeaconInterval. Routes follow link quality and detour, and a node
// receives only some of its neighbours' beacons: on scale-sharded's four
// deployments a packet took 2.2–3.1 hops per BFS hop and a node received
// 0.78 beacons per neighbour per BeaconInterval, a ratio of 2.8–4.0. At 4
// those deployments' shards run within 1.18× of each other's events per
// epoch.
const treeHopEvents = 4

// loadWeights estimates each node's share of a run's events, which
// Partition balances across the shards. A node forwards every packet its
// subtree in a BFS hop tree rooted at the sink generates, one per node per
// GenPeriod, and receives its neighbours' beacons, one per BeaconInterval.
func loadWeights(sc Scenario, tp *topo.Topology) []float64 {
	n := tp.N()
	// BFS from the sink; a node's parent is the node that reached it.
	parent := make([]topo.NodeID, n)
	seen := make([]bool, n)
	order := make([]topo.NodeID, 1, n)
	order[0], seen[topo.Sink] = topo.Sink, true
	for i := 0; i < len(order); i++ {
		for _, nb := range tp.Neighbors(order[i]) {
			if !seen[nb] {
				seen[nb], parent[nb] = true, order[i]
				order = append(order, nb)
			}
		}
	}
	subtree := make([]float64, n)
	for i := len(order) - 1; i > 0; i-- {
		id := order[i]
		subtree[id]++
		subtree[parent[id]] += subtree[id]
	}
	subtree[topo.Sink]++
	data := treeHopEvents / float64(sc.Collect.GenPeriod)
	beacon := 1 / float64(sc.Routing.BeaconInterval())
	w := make([]float64, n)
	for i := range w {
		w[i] = subtree[i]*data + float64(len(tp.Neighbors(topo.NodeID(i))))*beacon
	}
	return w
}

// DeliverData lands j on its next hop's owning shard at absolute time at.
// transmit guarantees at is at least HopDelay+TxTime in the future, which
// the session's lookahead never exceeds, so cross-shard sends always clear
// the current window.
func (s *ShardedSession) DeliverData(from, to topo.NodeID, at sim.Time, j *collect.PacketJourney) {
	s.coord.Send(s.owner[from], at, from, s.owner[to], delivery{ends: ends{int32(to), int32(from)}, j: j})
}

// DeliverBeacon applies a received beacon on the receiver's owning shard
// one lookahead window (the data-plane latency floor) after it was sent.
func (s *ShardedSession) DeliverBeacon(from, to topo.NodeID, seq int64, advertisedETX float64) {
	src := s.owner[from]
	s.coord.Send(src, s.coord.Sub(src).Now()+s.lookahead, from, s.owner[to],
		delivery{ends: ends{int32(to), int32(from)}, seq: seq, adv: advertisedETX})
}

// arrive lands a delivery on shard dst, the receiver's, at its arrival
// time.
func (s *ShardedSession) arrive(dst topo.ShardID, d delivery) {
	if d.j == nil {
		s.protos[dst].ReceiveBeacon(topo.NodeID(d.ends.to), topo.NodeID(d.ends.from), d.seq, d.adv)
		return
	}
	s.nws[dst].Arrive(topo.NodeID(d.ends.to), d.j)
}

// bufferJourney parks a journey completed by shard k until the next flush.
// It runs as collect's completion subscriber inside k's window, so it may
// touch only shard k's state.
func (s *ShardedSession) bufferJourney(k topo.ShardID, j *collect.PacketJourney) {
	// j is parked for the coordinator; the shard is done with it
	s.bufs[k] = append(s.bufs[k], j)
}

// flush drains every shard's completed-journey buffer in (Completed,
// Origin, Seq) order — a pure function of simulation behaviour, so the
// global feed sequence is identical at every shard count — and hands it to
// the scheme bank's sink stage. Runs on the coordinator at every window
// barrier, at every shard count.
func (s *ShardedSession) flush() {
	m := s.fmerge[:0]
	for k := range s.bufs {
		b := s.bufs[k]
		m = append(m, b...)
		for i := range b {
			b[i] = nil
		}
		s.bufs[k] = b[:0]
	}
	if len(m) > 1 {
		sortJourneys(m)
	}
	for i, j := range m {
		s.bank.sink.add(j)
		m[i] = nil
	}
	s.fmerge = m[:0]
}

func sortJourneys(m []*collect.PacketJourney) {
	// Insertion sort: windows are short, so m is tiny and almost sorted
	// (per-shard buffers are already completion-ordered).
	for i := 1; i < len(m); i++ {
		j := m[i]
		k := i - 1
		for k >= 0 && journeyAfter(m[k], j) {
			m[k+1] = m[k]
			k--
		}
		m[k+1] = j
	}
}

func journeyAfter(a, b *collect.PacketJourney) bool {
	if a.Completed != b.Completed {
		return a.Completed > b.Completed
	}
	if a.Origin != b.Origin {
		return a.Origin > b.Origin
	}
	return a.Seq > b.Seq
}

// Stats reports the partitioning and window accounting so far.
func (s *ShardedSession) Stats() ShardStats {
	events := make([]uint64, len(s.nws))
	for k := range events {
		events[k] = s.coord.Sub(topo.ShardID(k)).Processed()
	}
	return ShardStats{
		Shards:    len(s.nws),
		Lookahead: s.lookahead,
		CutLinks:  s.cutLinks,
		Links:     s.tp.LinkTable().Len(),
		Windows:   s.coord.Windows(),
		Exchanged: s.coord.Exchanged(),
		Events:    events,
	}
}

// Close stops the shard workers. The session must not be run afterwards.
func (s *ShardedSession) Close() { s.coord.Close() }

// RunSharded executes the scenario under the sharded engine through the
// same epoch loop as Run, building the same schemes: dophy and the groups
// sc.Schemes selects. The result is byte-identical for every value of
// sp.Shards (see ShardSpec); it is NOT comparable to Run's, which applies
// beacons and hand-offs with zero latency.
func RunSharded(sc Scenario, sp ShardSpec) *RunResult {
	s := NewShardedSession(sc, sp)
	defer s.Close()
	return runEpochs(&s.deployment)
}
