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
// lookahead window in the future. What IS guaranteed is that the run is
// byte-identical at every shard count, including Shards == 1 — that case
// executes the very same event sequence on a single engine with zero
// goroutines and serves as the sequential reference.
type ShardSpec struct {
	// Shards is the number of spatial partitions (= worker cores).
	Shards int
	// BeaconLatency is the propagation delay of a beacon from transmitter
	// to receiver. Must be positive: together with the data-plane floor
	// HopDelay+TxTime it bounds the conservative lookahead window.
	BeaconLatency sim.Time
	// FullSchemes attaches the complete estimator set (dophy, dophy-noagg,
	// raw/compact/huffman path records, MINC, LSQ) exactly as
	// experiment.Run does. When false only dophy runs — the configuration
	// the large scale tiers use, where the sequential sink-side decode of
	// seven schemes would dwarf the parallel simulation itself.
	FullSchemes bool
}

// DefaultShardSpec returns a spec with the beacon latency matched to the
// default collect config's data-plane latency floor (HopDelay+TxTime), so
// both cross-shard latency bounds coincide and the lookahead window — and
// with it the barrier interval — is as large as the scenario permits.
func DefaultShardSpec(shards int) ShardSpec {
	c := DefaultScenario().Collect
	return ShardSpec{Shards: shards, BeaconLatency: c.HopDelay + c.TxTime}
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
// source shard. It implements routing.Fabric and collect.Fabric. Each
// shard gets its own instance so the hop-carrier pool below is
// single-writer.
//
//dophy:owner shard
type shardFabric struct {
	s    *ShardedSession
	src  topo.ShardID
	free []*hopCarrier
}

// hopCarrier is a pooled continuation for same-shard packet arrivals — the
// sharded counterpart of collect's hopCont. Cross-shard arrivals allocate a
// closure instead: they are the cut fraction, and pooling across shards
// would make the free lists multi-writer. The pool hand-off in run is a
// //dophy:transfers point: once a carrier is back on the free list the
// sendown rule forbids touching it, which is what makes the pooled
// recycling provably safe inside the concurrency boundary.
//
//dophy:owner shard
type hopCarrier struct {
	f  *shardFabric
	to topo.NodeID
	//dophy:allow poolescape -- an in-flight journey: collect recycles only finished ones, and run clears j before the carrier is reused
	j  *collect.PacketJourney
	fn sim.Handler
}

// run is the carrier's continuation: it reads its payload into locals,
// returns itself to the pool, and only then delivers — the canonical
// hand-off shape the sendown rule enforces (no field of c may be touched
// after the pool append).
//
//dophy:hotpath
//dophy:window
func (c *hopCarrier) run() {
	f, to, j := c.f, c.to, c.j
	c.j = nil
	//dophy:transfers -- c is back on the free list; the next carrier() owns it
	f.free = append(f.free, c)
	f.s.nws[f.src].Arrive(to, j)
}

//dophy:hotpath
func (f *shardFabric) carrier(to topo.NodeID, j *collect.PacketJourney) *hopCarrier {
	if n := len(f.free); n > 0 {
		c := f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
		c.to, c.j = to, j
		return c
	}
	//dophy:allow hotpathalloc -- carrier-pool miss path: allocates only until the pool warms up
	c := &hopCarrier{f: f, to: to}
	c.j = j
	c.fn = c.run
	return c
}

// DeliverData lands j on its next hop's owning shard at absolute time at.
// transmit guarantees at is at least HopDelay+TxTime in the future, which
// the session's lookahead never exceeds, so cross-shard sends always clear
// the current window.
//
//dophy:hotpath
//dophy:window
func (f *shardFabric) DeliverData(from, to topo.NodeID, at sim.Time, j *collect.PacketJourney) {
	s := f.s
	dst := s.owner[to]
	if dst == f.src {
		//dophy:transfers -- the pooled carrier now owns j until it lands
		s.eng.Sub(f.src).Schedule(at, f.carrier(to, j).fn)
		return
	}
	nw := s.nws[dst]
	//dophy:allow hotpathalloc -- cross-shard forward: the closure carries the journey over the barrier; cut traffic only
	s.eng.Send(f.src, at, from, dst, func() { nw.Arrive(to, j) }) //dophy:transfers -- j rides the outbox to shard dst; this shard may not touch it again
}

// DeliverBeacon applies a received beacon on the receiver's owning shard
// after the configured beacon latency.
//
//dophy:hotpath
//dophy:window
func (f *shardFabric) DeliverBeacon(from, to topo.NodeID, seq int64, advertisedETX float64) {
	s := f.s
	dst := s.owner[to]
	at := s.eng.Sub(f.src).Now() + s.sp.BeaconLatency
	p := s.protos[dst]
	//dophy:allow hotpathalloc -- beacon receipt: low-rate control plane; the closure carries the payload to the receiver's shard
	s.eng.Send(f.src, at, from, dst, func() { p.ReceiveBeacon(to, from, seq, advertisedETX) })
}

// ShardedSession is the partitioned counterpart of Session: one complete
// deployment split across sp.Shards engines, with every scheme fed the
// exact same journey sequence regardless of the shard count.
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
	sc        Scenario        //dophy:owner immutable
	sp        ShardSpec       //dophy:owner immutable
	lookahead sim.Time        //dophy:owner immutable
	tp        *topo.Topology  //dophy:owner immutable
	lt        *topo.LinkTable //dophy:owner immutable
	eng       *shard.Engine   //dophy:owner immutable -- the coordinator handle; windowing happens inside it
	owner     []topo.ShardID  //dophy:owner immutable -- topo.Partition's node->shard map
	cutLinks  int             //dophy:owner immutable
	// Per-shard stacks: window code reaches them only through a typed
	// ShardID index, so shards provably never alias each other's state.
	recs   []*trace.Recorder   //dophy:owner shard
	protos []*routing.Protocol //dophy:owner shard
	nws    []*collect.Network  //dophy:owner shard
	fabs   []*shardFabric      //dophy:owner shard
	//dophy:allow poolescape -- finished journeys wait here only until the next flush hands them to the sink stage, which recycles them
	bufs [][]*collect.PacketJourney //dophy:owner shard -- journeys completed since the last flush, per shard
	//dophy:allow poolescape -- flush scratch: cleared before flush returns
	fmerge []*collect.PacketJourney //dophy:owner engine -- flush merge scratch

	// The scheme bank's sink stage is driven from the coordinator: each
	// barrier's sorted journeys go to it, and its goroutine feeds them while
	// the workers run the next window.
	bank *schemeBank //dophy:owner engine

	epoch          int   //dophy:owner engine
	lastQueueDrops int64 //dophy:owner engine
}

// NewShardedSession partitions the scenario's topology, builds one
// mac/routing/collect stack per shard, attaches the scheme bank (dophy
// alone unless sp.FullSchemes), runs the routing warmup and starts data
// generation.
func NewShardedSession(sc Scenario, sp ShardSpec) *ShardedSession {
	if sp.Shards < 1 {
		panic(fmt.Sprintf("experiment: %d shards", sp.Shards))
	}
	if !(sp.BeaconLatency > 0) {
		panic(fmt.Sprintf("experiment: beacon latency %v must be positive", sp.BeaconLatency))
	}
	if sc.Mac.AckOverReverseLink {
		// The ACK draw queries the reverse link's radio state, which the
		// receiver's shard owns — it cannot run under the sender's window.
		panic("experiment: AckOverReverseLink is incompatible with sharded runs")
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
	dataFloor := sc.Collect.HopDelay + sc.Collect.TxTime
	if !(dataFloor > 0) {
		panic(fmt.Sprintf("experiment: HopDelay+TxTime %v must be positive for sharded runs", dataFloor))
	}
	lookahead := sp.BeaconLatency
	if dataFloor < lookahead {
		lookahead = dataFloor
	}

	root := rng.New(sc.Seed)
	tp := sc.Topo.Build(root.Split())
	model := sc.Radio.Build(tp, sc.Seed^0x9e3779b97f4a7c15)
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

	s.bank = newSchemeBank(sc, tp, lt, sp.FullSchemes, s)
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
// It runs as collect's completion subscriber inside k's window, which the
// annotation declares — subscriber dispatch is a function value the call
// graph cannot see through.
//
//dophy:window
func (s *ShardedSession) bufferJourney(k topo.ShardID, j *collect.PacketJourney) {
	//dophy:transfers -- j is parked for the coordinator; the shard is done with it
	s.bufs[k] = append(s.bufs[k], j)
}

// flush drains every shard's completed-journey buffer in (Completed,
// Origin, Seq) order — a pure function of simulation behaviour, so the
// global feed sequence is identical at every shard count — and hands it to
// the scheme bank's sink stage. Runs on the coordinator: at window barriers
// for K > 1, after Run returns for K == 1.
//
//dophy:barrier
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

// recycle returns a journey the sink has fed to the pool of the shard that
// generated it. The sink stage calls it from flush and cutEpoch, so it runs
// with the workers parked.
//
//dophy:barrier
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
//
//dophy:barrier
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
//
//dophy:barrier
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
//
//dophy:barrier
func (s *ShardedSession) queueDrops() int64 {
	var total int64
	for _, nw := range s.nws {
		total += nw.QueueDrops
	}
	return total
}

// cutEpoch advances the simulation one epoch and harvests the scheme bank,
// the first stage of RunEpoch (see Session.cutEpoch). It drains per-shard
// recorders, so it runs strictly between Run windows.
//
//dophy:barrier
func (s *ShardedSession) cutEpoch() *epochCut {
	s.epoch++
	s.bank.sink.start()
	s.eng.Run(s.sc.Warmup + sim.Time(s.epoch)*s.sc.EpochLen)
	s.flush() // single-shard runs have no barriers; drain the epoch's tail
	s.bank.sink.join()
	truth := trace.CutMerged(s.recs)
	drops := s.queueDrops() - s.lastQueueDrops
	s.lastQueueDrops += drops
	return s.bank.harvest(s.epoch, truth, drops)
}

// RunEpoch advances the simulation one epoch and harvests every attached
// scheme, mirroring Session.RunEpoch.
func (s *ShardedSession) RunEpoch() *EpochOutcome {
	return s.bank.est.estimate(s.cutEpoch())
}

// Close stops the shard workers. The session must not be run afterwards.
func (s *ShardedSession) Close() { s.eng.Close() }

// RunSharded executes the scenario under the sharded engine through the
// same epoch loop as Run. The result is byte-identical for every value of
// sp.Shards (see ShardSpec); it is NOT comparable to Run's, which applies
// beacons and hand-offs with zero latency.
func RunSharded(sc Scenario, sp ShardSpec) *RunResult {
	s := NewShardedSession(sc, sp)
	defer s.Close()
	return runEpochs(sc, s, s.bank.est)
}
