package experiment

import (
	"fmt"

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
}

// shardFabric carries beacons and data packets between nodes for one
// source shard. It implements routing.Fabric and collect.Fabric. Every
// delivery rides a pooled carrier (see carrier) taken from the sending
// shard's free list, so neither a beacon nor a data hop allocates once the
// pools are warm. Each shard gets its own instance so both lists below have
// one writer at a time: the shard's worker inside a window, the coordinator
// at the barrier.
type shardFabric struct {
	s   *ShardedSession
	src topo.ShardID
	// free holds idle carriers homed on this shard. Only carriers whose
	// home is this fabric are ever on it.
	free []*carrier
	// away holds carriers homed on other shards that have run on this one;
	// flush returns them home.
	away []*carrier
}

// carrier is a pooled, pre-bound delivery: a beacon receipt (j == nil) or a
// packet arrival on shard dst, the sharded counterpart of collect's hopCont.
// fn is bound to run once, when the carrier is made, so scheduling it
// allocates nothing. A carrier always returns to its home fabric's free
// list: directly when it ran there, through the running shard's away list
// and flush when it ran on another shard. Returning it to the running
// shard instead would drain the pools toward the sink's shard, since data
// hops flow toward the sink.
type carrier struct {
	home     *shardFabric
	dst      topo.ShardID
	to, from topo.NodeID
	seq      int64
	adv      float64
	// j is an in-flight journey: collect recycles only finished ones, and
	// run clears j before the carrier is reused.
	j  *collect.PacketJourney
	fn sim.Handler
}

// run is the carrier's continuation on shard dst: it reads its payload into
// locals, parks itself for reuse, and only then delivers. The delivery may
// take the same carrier from the pool, so no field of c may be touched
// after it is parked.
func (c *carrier) run() {
	home, dst, to, from, seq, adv, j := c.home, c.dst, c.to, c.from, c.seq, c.adv, c.j
	c.j = nil
	s := home.s
	// c is parked; the next carrier() on its home shard owns it
	if dst == home.src {
		home.free = append(home.free, c)
	} else {
		here := s.fabs[dst]
		here.away = append(here.away, c)
	}
	if j == nil {
		s.protos[dst].ReceiveBeacon(to, from, seq, adv)
		return
	}
	s.nws[dst].Arrive(to, j)
}

// carrier takes an idle carrier from this shard's pool, or makes one.
func (f *shardFabric) carrier(dst topo.ShardID, to, from topo.NodeID) *carrier {
	if n := len(f.free); n > 0 {
		c := f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
		c.dst, c.to, c.from = dst, to, from
		return c
	}
	// Pool miss: allocates only until the pool warms up.
	c := &carrier{home: f, dst: dst, to: to, from: from}
	c.fn = c.run
	return c
}

// DeliverData lands j on its next hop's owning shard at absolute time at.
// transmit guarantees at is at least HopDelay+TxTime in the future, which
// the session's lookahead never exceeds, so cross-shard sends always clear
// the current window.
func (f *shardFabric) DeliverData(from, to topo.NodeID, at sim.Time, j *collect.PacketJourney) {
	s := f.s
	dst := s.owner[to]
	c := f.carrier(dst, to, from)
	c.j = j // the carrier owns j until it lands; this shard may not touch it again
	s.eng.Send(f.src, at, from, dst, c.fn)
}

// DeliverBeacon applies a received beacon on the receiver's owning shard
// one lookahead window (the data-plane latency floor) after it was sent.
func (f *shardFabric) DeliverBeacon(from, to topo.NodeID, seq int64, advertisedETX float64) {
	s := f.s
	dst := s.owner[to]
	c := f.carrier(dst, to, from)
	c.seq, c.adv = seq, advertisedETX
	s.eng.Send(f.src, s.eng.Sub(f.src).Now()+s.lookahead, from, dst, c.fn)
}

// ShardedSession is the partitioned counterpart of Session: one complete
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
type ShardedSession struct {
	sc        Scenario
	sp        ShardSpec
	lookahead sim.Time
	tp        *topo.Topology
	lt        *topo.LinkTable
	eng       *shard.Engine  // the coordinator handle; windowing happens inside it
	owner     []topo.ShardID // topo.Partition's node->shard map
	cutLinks  int
	// Per-shard stacks: code running inside a window reaches them only
	// through its own shard's ShardID index.
	recs   []*trace.Recorder
	protos []*routing.Protocol
	nws    []*collect.Network
	fabs   []*shardFabric
	// bufs holds the journeys completed since the last flush, per shard,
	// until the flush hands them to the sink stage, which recycles them.
	bufs   [][]*collect.PacketJourney
	fmerge []*collect.PacketJourney // flush merge scratch, cleared before flush returns

	// The scheme bank's sink stage is driven from the coordinator: each
	// barrier's sorted journeys go to it, and its goroutine feeds them while
	// the workers run the next window.
	bank *schemeBank

	epoch          int
	lastQueueDrops int64
}

// NewShardedSession partitions the scenario's topology, builds one
// mac/routing/collect stack per shard, attaches dophy and the scheme groups
// sc.Schemes selects, runs the routing warmup and starts data generation.
func NewShardedSession(sc Scenario, sp ShardSpec) *ShardedSession {
	if sp.Shards < 1 {
		panic(fmt.Sprintf("experiment: %d shards", sp.Shards))
	}
	if sc.Radio.FailMTBF > 0 {
		// Node-failure processes mutate both endpoints' radio state on
		// every query; they have no single owning shard.
		panic("experiment: node failures (FailMTBF) are incompatible with sharded runs")
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
	lt := tp.LinkTable()
	// One stream per node, derived before any per-shard construction so the
	// streams are identical at every shard count.
	streams := rng.NewStreams(root.Uint64(), tp.N())

	owner := tp.Partition(sp.Shards)
	_, cut := lt.CrossShard(owner)

	s := &ShardedSession{
		sc: sc, sp: sp, lookahead: lookahead,
		tp: tp, lt: lt, owner: owner, cutLinks: cut,
		eng:    shard.New(shard.Config{Shards: sp.Shards, Lookahead: lookahead, Nodes: tp.N()}),
		recs:   make([]*trace.Recorder, sp.Shards),
		protos: make([]*routing.Protocol, sp.Shards),
		nws:    make([]*collect.Network, sp.Shards),
		fabs:   make([]*shardFabric, sp.Shards),
		bufs:   make([][]*collect.PacketJourney, sp.Shards),
	}
	for k := 0; k < sp.Shards; k++ {
		owned := make([]bool, tp.N())
		for i := range owned {
			owned[i] = owner[i] == topo.ShardID(k)
		}
		fab := &shardFabric{s: s, src: topo.ShardID(k)}
		sub := s.eng.Sub(topo.ShardID(k))
		// Same-shard beacons land exactly one lookahead after they are sent.
		sub.Lane(lookahead)
		rec := trace.NewRecorder(lt)
		arq := mac.New(sc.Mac, model, root.Split(), rec)
		arq.UsePerNodeRNG(streams)
		proto := routing.NewSharded(sc.Routing, sub, tp, model, root.Split(), rec,
			routing.ShardHooks{Owned: owned, PerNode: streams, Fabric: fab})
		nw := collect.NewSharded(sc.Collect, sub, tp, arq, proto, root.Split(), rec,
			collect.ShardHooks{Owned: owned, PerNode: streams, Fabric: fab})
		shardIdx := topo.ShardID(k)
		nw.Subscribe(func(j *collect.PacketJourney) { s.bufferJourney(shardIdx, j) })
		s.recs[k], s.protos[k], s.nws[k], s.fabs[k] = rec, proto, nw, fab
	}

	s.bank = newSchemeBank(sc, tp, lt, s)
	// Handing journeys to the sink at every barrier (rather than at epoch
	// ends) bounds journey buffering to one window's worth of completions.
	s.eng.OnBarrier(s.flush)

	for _, p := range s.protos {
		p.Start()
	}
	// The warmup produces no journeys (generation starts below), so the
	// barrier flushes during it hand nothing to the sink stage.
	s.eng.Run(sc.Warmup)
	trace.CutMerged(s.recs) // discard warmup ground truth
	for _, nw := range s.nws {
		nw.Start()
	}
	return s
}

// bufferJourney parks a journey completed by shard k until the next flush.
// It runs as collect's completion subscriber inside k's window, so it may
// touch only shard k's state.
func (s *ShardedSession) bufferJourney(k topo.ShardID, j *collect.PacketJourney) {
	// j is parked for the coordinator; the shard is done with it
	s.bufs[k] = append(s.bufs[k], j)
}

// flush returns every carrier parked away from home to its home pool, then
// drains every shard's completed-journey buffer in (Completed, Origin, Seq)
// order — a pure function of simulation behaviour, so the global feed
// sequence is identical at every shard count — and hands it to the scheme
// bank's sink stage. Runs on the coordinator at every window barrier, at
// every shard count.
func (s *ShardedSession) flush() {
	for _, f := range s.fabs {
		for i, c := range f.away {
			c.home.free = append(c.home.free, c)
			f.away[i] = nil
		}
		f.away = f.away[:0]
	}
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

// recycle returns a journey the sink has fed to the pool of the shard that
// generated it. The sink stage calls it from flush and RunEpoch, so it runs
// with the workers parked.
func (s *ShardedSession) recycle(j *collect.PacketJourney) {
	s.nws[s.owner[j.Origin]].Recycle(j)
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

// Topology returns the built topology.
func (s *ShardedSession) Topology() *topo.Topology { return s.tp }

// BeaconsSent sums the control-plane cost over all shards. Like every
// cross-shard reader below, it must only run with the workers parked.
func (s *ShardedSession) BeaconsSent() int64 {
	var total int64
	for _, p := range s.protos {
		total += p.BeaconsSent
	}
	return total
}

// Events sums the simulator events executed by all shards.
func (s *ShardedSession) Events() uint64 { return s.eng.Processed() }

// Routed counts nodes (excluding the sink) that currently have a parent.
func (s *ShardedSession) Routed() int {
	n := 0
	for _, p := range s.protos {
		n += p.Routed()
	}
	return n
}

// Stats reports the partitioning and window accounting so far.
func (s *ShardedSession) Stats() ShardStats {
	return ShardStats{
		Shards:    s.sp.Shards,
		Lookahead: s.lookahead,
		CutLinks:  s.cutLinks,
		Links:     s.lt.Len(),
		Windows:   s.eng.Windows(),
		Exchanged: s.eng.Exchanged(),
	}
}

// queueDrops sums congestion losses over all shards.
func (s *ShardedSession) queueDrops() int64 {
	var total int64
	for _, nw := range s.nws {
		total += nw.QueueDrops
	}
	return total
}

// RunEpoch advances the simulation one epoch and harvests every built
// scheme, mirroring Session.RunEpoch. It drains per-shard
// recorders, so it runs strictly between Run windows.
func (s *ShardedSession) RunEpoch() *EpochOutcome {
	s.epoch++
	s.bank.sink.start()
	s.eng.Run(s.sc.Warmup + sim.Time(s.epoch)*s.sc.EpochLen)
	s.bank.sink.join()
	truth := trace.CutMerged(s.recs)
	drops := s.queueDrops() - s.lastQueueDrops
	s.lastQueueDrops += drops
	return s.bank.harvest(s.epoch, truth, drops)
}

// Close stops the shard workers. The session must not be run afterwards.
func (s *ShardedSession) Close() { s.eng.Close() }

// RunSharded executes the scenario under the sharded engine through the
// same epoch loop as Run, building the same schemes: dophy and the groups
// sc.Schemes selects. The result is byte-identical for every value of
// sp.Shards (see ShardSpec); it is NOT comparable to Run's, which applies
// beacons and hand-offs with zero latency.
func RunSharded(sc Scenario, sp ShardSpec) *RunResult {
	s := NewShardedSession(sc, sp)
	defer s.Close()
	return runEpochs(sc, s)
}
