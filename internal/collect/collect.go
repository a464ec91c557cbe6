// Package collect is the data-collection application layer: every node
// periodically generates a reading and forwards it hop by hop toward the
// sink over the dynamic routing protocol, using ARQ at each hop.
//
// Its product is the stream of PacketJourney records — the per-packet ground
// truth (who forwarded it, over which links, with how many transmission
// attempts, whether it arrived). Tomography schemes subscribe to journeys:
// at each hop they see exactly the information a real in-packet annotation
// would carry (receiver-observed first-delivery attempt indices), and at the
// sink they decode and estimate. Keeping the schemes out of the forwarding
// loop lets several schemes observe the *same* packet realisations, which is
// how the harness compares them fairly.
package collect

import (
	"dophy/internal/mac"
	"dophy/internal/rng"
	"dophy/internal/routing"
	"dophy/internal/sim"
	"dophy/internal/topo"
	"dophy/internal/trace"
)

// Hop records one completed forwarding step of a packet.
type Hop struct {
	Link topo.Link
	// Attempts is the total number of transmissions the sender made
	// (ground truth; inflated by lost ACKs).
	Attempts int
	// Observed is the attempt index of the first frame the receiver got —
	// the value an in-packet annotation scheme records for this hop.
	Observed int
}

// DropReason says why a packet failed to reach the sink.
type DropReason int

const (
	NotDropped  DropReason = iota
	DropRetries            // ARQ budget exhausted
	DropNoRoute            // forwarder had no parent
	DropTTL                // too many hops (transient routing loop)
	DropQueue              // forwarder's queue overflowed (congestion)
)

func (d DropReason) String() string {
	switch d {
	case NotDropped:
		return "delivered"
	case DropRetries:
		return "retries"
	case DropNoRoute:
		return "no-route"
	case DropTTL:
		return "ttl"
	case DropQueue:
		return "queue"
	}
	return "unknown"
}

// PacketJourney is the full ground-truth record of one data packet.
//
// A journey belongs to the Network from generate until finish hands it to
// the subscribers. A consumer that is done with a finished journey may give
// it back with Network.Recycle, after which generate reuses the record for a
// later packet; without Recycle every packet gets a fresh record.
type PacketJourney struct {
	// life is the journey's audited lifecycle state under dophy_invariants
	// (in flight, finished, recycled); zero-size otherwise. It comes first
	// so the empty type adds no trailing padding.
	life      journeyLife
	Origin    topo.NodeID
	Seq       int64
	Generated sim.Time
	Completed sim.Time
	Hops      []Hop
	Delivered bool
	Drop      DropReason
}

// Sink consumers receive every completed journey (delivered or dropped).
// A JourneyFunc runs on the simulation goroutine, and another consumer (the
// experiment harness's sink stage) may be reading the same journey
// concurrently: fn must not write j, and must not retain j after it
// returns, because the record may be recycled for a later packet.
type JourneyFunc func(*PacketJourney)

// Annotator hooks the forwarding path itself: the distributed view, where
// per-packet state is built hop by hop exactly as mote firmware would.
// OnGenerate runs at the origin before the first transmission; OnHop runs
// at each hop's receiver immediately after a successful ARQ exchange (the
// moment the receiver appends its record); OnDeliver runs when the packet
// reaches the sink. Dropped packets simply never reach OnDeliver — any
// per-packet state the annotator holds for them must be reclaimed via
// OnDrop.
type Annotator interface {
	OnGenerate(j *PacketJourney)
	OnHop(j *PacketJourney, h Hop)
	OnDeliver(j *PacketJourney)
	OnDrop(j *PacketJourney)
}

// Config parameterises the application.
type Config struct {
	GenPeriod sim.Time // per-node data generation interval
	GenJitter float64  // uniform +/- fraction of the period
	TxTime    sim.Time // time per radio transmission (serialisation + backoff)
	HopDelay  sim.Time // per-hop processing/queueing delay
	TTL       int      // max hops before a packet is declared looping
	// QueueCap bounds each node's forwarding queue: while a node is mid-
	// transmission further packets wait, and arrivals beyond QueueCap are
	// dropped (DropQueue). 0 models an unbounded, zero-contention node —
	// the abstraction most tomography evaluations use.
	QueueCap int
}

// DefaultConfig matches typical low-rate collection workloads.
func DefaultConfig() Config {
	return Config{GenPeriod: 10, GenJitter: 0.25, TxTime: 0.01, HopDelay: 0.02, TTL: 64}
}

// Router is the slice of the routing protocol the data plane needs.
// *routing.Protocol implements it; tests substitute fixed or looping tables.
type Router interface {
	Parent(id topo.NodeID) (topo.NodeID, bool)
	OnDataResult(from, to topo.NodeID, res mac.Result)
}

var _ Router = (*routing.Protocol)(nil)

// Fabric transports a packet to its next-hop node when that node may be
// owned by another shard. DeliverData is called on the sending node's shard
// at transmission time; the fabric must invoke Arrive on the destination's
// owning Network instance at the arrival time 'at' (which transmit
// guarantees is at least HopDelay+TxTime in the future — the latency floor
// the shard engine's lookahead is derived from). Sink deliveries never
// reach the fabric: the final hop completes on the sender's shard.
type Fabric interface {
	DeliverData(from, to topo.NodeID, at sim.Time, j *PacketJourney)
}

// ShardHooks configures a Network instance for the sharded engine. All
// fields may be zero for a plain sequential instance.
type ShardHooks struct {
	Owned   []bool        // nodes this instance owns; nil = all
	PerNode []*rng.Source // per-node RNG streams, indexed by NodeID
	Fabric  Fabric        // cross-node packet transport
}

// maxPooledHops is the largest Hops capacity Recycle keeps, four times the
// 16 a fresh journey starts with. Paths on the facade's grids (TTL 64) fit;
// on the 50×50 scale tier most paths are longer, and pooling their
// 128–512-slot buffers raised the sharded benchmark's peak RSS by half.
const maxPooledHops = 64

// Network wires the layers together for one simulated deployment.
type Network struct {
	// inv carries the build-tag-gated journey/queue audits; a zero-size
	// no-op in the default build (see invariants_off.go).
	inv        netInvariants
	cfg        Config
	eng        *sim.Engine
	tp         *topo.Topology
	arq        *mac.ARQ
	proto      Router
	rec        *trace.Recorder
	r          jitterSource
	perNode    []*rng.Source
	owned      []bool
	fab        Fabric
	nextSeq    []int64
	subs       []JourneyFunc
	annotators []Annotator
	started    bool
	// genFns holds one prebuilt generation handler per node, so periodic
	// rescheduling does not allocate a fresh closure every packet.
	genFns []sim.Handler
	// contFree pools hop continuations (see hopCont): each carrier owns a
	// single prebuilt handler, so the per-hop forwarding path performs no
	// closure allocation in steady state.
	contFree []*hopCont
	// journeyFree holds finished journeys handed back by Recycle; generate
	// reuses them before allocating.
	journeyFree []*PacketJourney
	// Per-node forwarding queues (QueueCap > 0 only).
	busy   []bool
	queues [][]*PacketJourney
	// QueueDrops counts congestion losses for reporting.
	QueueDrops int64
}

// jitterSource is the tiny slice of rng.Source the network needs; taking an
// interface keeps the dependency direction clean and tests simple.
type jitterSource interface {
	Float64() float64
	Range(lo, hi float64) float64
}

// New wires a network. rec may be nil.
func New(cfg Config, eng *sim.Engine, tp *topo.Topology, arq *mac.ARQ, proto Router, r jitterSource, rec *trace.Recorder) *Network {
	return NewSharded(cfg, eng, tp, arq, proto, r, rec, ShardHooks{})
}

// NewSharded wires a network instance for one shard of a partitioned
// simulation: generation runs only for owned nodes, jitter draws come from
// per-node streams, and packets leaving the shard travel over the fabric.
// With zero hooks it is exactly New.
func NewSharded(cfg Config, eng *sim.Engine, tp *topo.Topology, arq *mac.ARQ, proto Router, r jitterSource, rec *trace.Recorder, hooks ShardHooks) *Network {
	if cfg.GenPeriod <= 0 {
		panic("collect: generation period must be positive")
	}
	if cfg.TTL < 1 {
		panic("collect: TTL must be >= 1")
	}
	if cfg.QueueCap < 0 {
		panic("collect: QueueCap must be >= 0")
	}
	n := &Network{
		cfg:     cfg,
		eng:     eng,
		tp:      tp,
		arq:     arq,
		proto:   proto,
		rec:     rec,
		r:       r,
		perNode: hooks.PerNode,
		owned:   hooks.Owned,
		fab:     hooks.Fabric,
		nextSeq: make([]int64, tp.N()),
	}
	if cfg.QueueCap > 0 {
		n.busy = make([]bool, tp.N())
		n.queues = make([][]*PacketJourney, tp.N())
	}
	return n
}

// owns reports whether this instance runs id's generation process.
func (n *Network) owns(id topo.NodeID) bool { return n.owned == nil || n.owned[id] }

// rng returns the jitter stream for id's draws: the node's own stream in
// sharded mode, the shared network stream otherwise.
func (n *Network) rng(id topo.NodeID) jitterSource {
	if n.perNode != nil {
		return n.perNode[id]
	}
	return n.r
}

// Subscribe registers fn to receive every completed journey. Subscribers
// run in registration order on the simulation goroutine; see JourneyFunc
// for what fn may do with the journey.
func (n *Network) Subscribe(fn JourneyFunc) { n.subs = append(n.subs, fn) }

// Recycle hands a finished journey back for reuse by a later generate,
// unless its Hops buffer has grown past maxPooledHops. The caller must own
// j outright: every subscriber has returned, nothing reads it any more, and
// it is recycled once. Under dophy_invariants recycling a journey that is
// still in flight, or recycling one twice, panics.
func (n *Network) Recycle(j *PacketJourney) {
	n.inv.onRecycle(j)
	if cap(j.Hops) > maxPooledHops {
		// A pooled record keeps its buffer for good, and reuse is LIFO, so
		// every long path would ratchet the pool towards TTL-sized buffers.
		// Leave these to the GC.
		return
	}
	n.journeyFree = append(n.journeyFree, j)
}

// AttachAnnotator registers a hop-by-hop annotator. Call before Start.
func (n *Network) AttachAnnotator(a Annotator) { n.annotators = append(n.annotators, a) }

// Start schedules the per-node generation processes (sink generates
// nothing). Call once, after routing.Start.
func (n *Network) Start() {
	if n.started {
		panic("collect: Start called twice")
	}
	n.started = true
	n.genFns = make([]sim.Handler, n.tp.N())
	for i := 1; i < n.tp.N(); i++ {
		id := topo.NodeID(i)
		if !n.owns(id) {
			continue
		}
		n.genFns[i] = func() { n.generate(id) }
		first := sim.Time(n.rng(id).Float64()) * n.cfg.GenPeriod
		n.eng.Schedule(n.eng.Now()+first, n.genFns[i])
	}
}

func (n *Network) jitteredPeriod(id topo.NodeID) sim.Time {
	j := n.cfg.GenJitter
	return n.cfg.GenPeriod * sim.Time(1+n.rng(id).Range(-j, j))
}

// generate creates one packet at id and starts forwarding it.
func (n *Network) generate(id topo.NodeID) {
	n.nextSeq[id]++
	var j *PacketJourney
	if k := len(n.journeyFree); k > 0 {
		j = n.journeyFree[k-1]
		n.journeyFree[k-1] = nil
		n.journeyFree = n.journeyFree[:k-1]
		n.inv.onReuse(j)
		// Every field is reset; Hops keeps its capacity.
		*j = PacketJourney{Origin: id, Seq: n.nextSeq[id], Generated: n.eng.Now(), Hops: j.Hops[:0]}
	} else {
		// Pre-size Hops past the typical path depth with retries: the append
		// in transmit regrows for every journey that outgrows the capacity,
		// and at cap 8 roughly a third of the journeys on a grid topology did.
		j = &PacketJourney{Origin: id, Seq: n.nextSeq[id], Generated: n.eng.Now(), Hops: make([]Hop, 0, 16)}
	}
	if n.rec != nil {
		n.rec.Generated++
	}
	for _, a := range n.annotators {
		a.OnGenerate(j)
	}
	n.forward(id, j)
	n.eng.After(n.jitteredPeriod(id), n.genFns[id])
}

// Arrive admits a packet delivered over the fabric to owned node 'to' —
// the cross-shard counterpart of the local post-hop continuation. It must
// run on this instance's engine at the packet's arrival time.
func (n *Network) Arrive(to topo.NodeID, j *PacketJourney) {
	n.forward(to, j)
}

// forward admits j to node at: directly when contention is unmodelled or
// the node is idle, otherwise through the node's bounded queue.
func (n *Network) forward(at topo.NodeID, j *PacketJourney) {
	if n.cfg.QueueCap == 0 {
		n.transmit(at, j)
		return
	}
	if n.busy[at] {
		if len(n.queues[at]) >= n.cfg.QueueCap {
			n.QueueDrops++
			n.finish(j, DropQueue)
			return
		}
		n.queues[at] = append(n.queues[at], j)
		return
	}
	n.busy[at] = true
	n.transmit(at, j)
}

// release marks node at idle and starts its next queued packet, if any.
func (n *Network) release(at topo.NodeID) {
	if n.cfg.QueueCap == 0 {
		return
	}
	if q := n.queues[at]; len(q) > 0 {
		// Pop by copying down, not by re-slicing: q[1:] would walk the
		// slice off its backing array, and every later append would then
		// reallocate it. The queue holds at most QueueCap packets.
		next := q[0]
		copy(q, q[1:])
		q[len(q)-1] = nil
		n.queues[at] = q[:len(q)-1]
		n.transmit(at, next)
		n.inv.onRelease(n, at)
		return
	}
	n.busy[at] = false
	n.inv.onRelease(n, at)
}

// hopCont is a pooled continuation for the post-hop delay: it stands in for
// the closure transmit would otherwise allocate per hop. Each carrier is
// created once with a single prebuilt handler bound to itself and returns
// to the network's pool when it runs.
type hopCont struct {
	n      *Network
	at     topo.NodeID
	parent topo.NodeID
	j      *PacketJourney // nil for release-only continuations (drop path)
	fn     sim.Handler
}

// cont draws a carrier from the pool (or mints one) and arms it.
func (n *Network) cont(at, parent topo.NodeID, j *PacketJourney) *hopCont {
	var c *hopCont
	if k := len(n.contFree); k > 0 {
		c = n.contFree[k-1]
		n.contFree[k-1] = nil
		n.contFree = n.contFree[:k-1]
	} else {
		c = &hopCont{n: n}
		c.fn = c.run
	}
	c.at, c.parent, c.j = at, parent, j
	return c
}

// run fires the continuation and recycles the carrier.
func (c *hopCont) run() {
	n, at, parent, j := c.n, c.at, c.parent, c.j
	c.j = nil
	n.contFree = append(n.contFree, c)
	n.release(at)
	if j == nil {
		return
	}
	if parent == topo.Sink {
		n.finish(j, NotDropped)
		return
	}
	n.forward(parent, j)
}

// transmit performs one hop of j from node at, then schedules the next.
func (n *Network) transmit(at topo.NodeID, j *PacketJourney) {
	if len(j.Hops) >= n.cfg.TTL {
		n.release(at)
		n.finish(j, DropTTL)
		return
	}
	parent, ok := n.proto.Parent(at)
	if !ok {
		n.release(at)
		n.finish(j, DropNoRoute)
		return
	}
	link := topo.Link{From: at, To: parent}
	res := n.arq.Send(link, n.eng.Now())
	n.proto.OnDataResult(at, parent, res)
	delay := n.cfg.HopDelay + n.cfg.TxTime*sim.Time(res.Attempts)
	if !res.Delivered {
		n.eng.After(delay, n.cont(at, 0, nil).fn)
		n.finish(j, DropRetries)
		return
	}
	hop := Hop{Link: link, Attempts: res.Attempts, Observed: res.FirstDelivered}
	j.Hops = append(j.Hops, hop)
	for _, a := range n.annotators {
		a.OnHop(j, hop)
	}
	if n.fab != nil && parent != topo.Sink {
		// Sharded path: release this node locally when the hop completes and
		// hand the packet to the fabric, which lands it on the parent's owner
		// at the same absolute time the local continuation would have run.
		// Sink deliveries stay on the local continuation so the journey
		// finishes on the forwarder's shard either way.
		n.eng.After(delay, n.cont(at, 0, nil).fn)
		n.fab.DeliverData(at, parent, n.eng.Now()+delay, j)
		return
	}
	n.eng.After(delay, n.cont(at, parent, j).fn)
}

// finish completes a journey and notifies subscribers.
func (n *Network) finish(j *PacketJourney, reason DropReason) {
	j.Completed = n.eng.Now()
	j.Drop = reason
	j.Delivered = reason == NotDropped
	n.inv.onFinish(n, j)
	if n.rec != nil {
		if j.Delivered {
			n.rec.Delivered++
		} else {
			n.rec.Dropped++
		}
	}
	for _, a := range n.annotators {
		if j.Delivered {
			a.OnDeliver(j)
		} else {
			a.OnDrop(j)
		}
	}
	for _, fn := range n.subs {
		fn(j)
	}
}
