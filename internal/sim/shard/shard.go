// Package shard runs one simulation across several cores with conservative
// lookahead, without giving up byte-determinism.
//
// The topology is partitioned spatially (topo.Partition) and each shard
// owns a private sim.Engine — its own event queue and clock — plus the
// state of its nodes. Shards execute windows of virtual time in parallel:
// a window starting at the earliest pending event time t runs every shard
// with RunBefore(t+L), where the lookahead L is the minimum latency of any
// cross-shard interaction. Because nothing a shard does inside the window
// can affect another shard before t+L, the windows are causally closed and
// the parallel execution is equivalent to the sequential one.
//
// Cross-shard interactions are not applied directly: the sending shard
// appends a message, a value of the engine's payload type, to its private
// outbox via Send, and at the window barrier the coordinator merges all
// outboxes, sorts them by (arrival time, origin node, per-origin sequence)
// and schedules them on the destination shards. The sort key is a pure
// function of the simulation's behaviour — shard numbering never enters
// it — so the merge order, and with it the entire run, is identical at any
// shard count.
// Per-node RNG streams (rng.Derive) complete the argument: no draw order
// depends on how nodes interleave across shards.
//
// Concurrency is confined to this package: the coordinator hands a window
// horizon to each worker over a channel and waits for all of them before
// touching any shard state (both directions establish happens-before).
// Shard 0 always runs on the caller's goroutine, so one shard runs the same
// windows and barriers as K >= 2 with no worker goroutine. All cross-shard
// traffic flows through the outbox merge at window barriers, as values:
// each shard schedules its arrivals through a sim.Pool of its own, used by
// the shard inside a window and by the coordinator at a barrier, so no
// carrier or handler ever crosses a shard boundary. The race detector and
// TestShardedByteDeterminism check the sharing discipline.
package shard

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"dophy/internal/sim"
	"dophy/internal/topo"
)

// Config sizes a sharded engine.
type Config struct {
	// Shards is the number of partitions. Shard 0 runs on the caller's
	// goroutine and each further shard on a worker goroutine, so 1 means a
	// sequential run, windowed like any other.
	Shards int
	// Lookahead is the window length L: a strict lower bound on the
	// latency of every cross-shard message. Send enforces it.
	Lookahead sim.Time
	// Nodes is the node count of the topology; Send keys per-origin
	// sequence counters by NodeID.
	Nodes int
}

// msg is one cross-shard interaction, parked in an outbox until the next
// barrier.
type msg[P any] struct {
	at     sim.Time
	seq    uint64      // per-origin counter; breaks (at, origin) ties
	origin topo.NodeID // node whose handler produced the message
	dst    topo.ShardID
	p      P
}

// compareMsgs is the barrier merge order: (arrival time, origin node,
// per-origin seq), a pure function of simulation behaviour — shard
// numbering never enters it, so the merge is a total order identical at any
// shard count. FuzzMergeKeyTotalOrder pins exactly that property.
func compareMsgs[P any](a, b msg[P]) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.origin, b.origin); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// Engine coordinates the per-shard sub-engines. Its messages carry a
// payload of type P, which New's arrive receives on the destination shard.
type Engine[P any] struct {
	cfg       Config         // sizing, fixed at New
	subs      []*sim.Engine  // each shard runs its own engine inside windows
	arrivals  []*sim.Pool[P] // shard s's arrivals, scheduled on subs[s]
	outbox    [][]msg[P]     // indexed by source shard; written only by that shard's worker inside a window
	seqs      []uint64       // per-origin message counters; touched only by the origin's owner shard
	merged    []msg[P]       // barrier merge scratch
	windowEnd sim.Time       // horizon of the window in flight; set before workers start
	windows   uint64
	exchanged uint64
	barrier   func()
	started   bool
	closed    bool
	start     []chan sim.Time // channel fabric, fixed at New
	done      chan struct{}
}

// New returns an engine with cfg.Shards empty sub-engines, clocks at zero,
// whose messages run arrive(dst, p) on their destination shard dst at their
// arrival time. Lookahead must be positive at every shard count: Run
// advances time one window of that length at a time. Callers that started
// worker goroutines by running with more than one shard must Close the
// engine when done.
func New[P any](cfg Config, arrive func(dst topo.ShardID, p P)) *Engine[P] {
	if cfg.Shards < 1 {
		panic(fmt.Sprintf("shard: %d shards", cfg.Shards))
	}
	if !(cfg.Lookahead > 0) {
		panic(fmt.Sprintf("shard: lookahead %v must be positive", cfg.Lookahead))
	}
	e := &Engine[P]{
		cfg:      cfg,
		subs:     make([]*sim.Engine, cfg.Shards),
		arrivals: make([]*sim.Pool[P], cfg.Shards),
		outbox:   make([][]msg[P], cfg.Shards),
		seqs:     make([]uint64, cfg.Nodes),
		start:    make([]chan sim.Time, cfg.Shards),
		done:     make(chan struct{}, cfg.Shards),
	}
	for i := range e.subs {
		dst := topo.ShardID(i)
		e.subs[i] = sim.New()
		e.arrivals[i] = sim.NewPool(e.subs[i], func(p P) { arrive(dst, p) })
		e.start[i] = make(chan sim.Time, 1)
	}
	return e
}

// Shards returns the configured shard count.
func (e *Engine[P]) Shards() int { return e.cfg.Shards }

// Sub returns shard s's engine. Handlers owned by shard s must schedule
// local work exclusively through it.
func (e *Engine[P]) Sub(s topo.ShardID) *sim.Engine { return e.subs[s] }

// Windows returns the number of parallel windows executed so far.
func (e *Engine[P]) Windows() uint64 { return e.windows }

// Exchanged returns the number of cross-shard messages delivered so far.
func (e *Engine[P]) Exchanged() uint64 { return e.exchanged }

// Processed sums the events executed by all shards. It reads every shard's
// event counter, so it may only run with the workers parked.
func (e *Engine[P]) Processed() uint64 {
	var total uint64
	for _, s := range e.subs {
		total += s.Processed()
	}
	return total
}

// Send parks a cross-shard interaction: arrive(dst, p) will run on shard
// dst's engine at absolute time at. It must be called from a handler
// executing on shard src (the caller guarantees origin is owned by src),
// with at no earlier than the current window's horizon — the
// conservative-lookahead contract. Violating it panics, like scheduling in
// the past does on a plain engine.
//
// Same-shard sends short-circuit to a direct Schedule; the outbox and the
// barrier merge exist only for genuinely cross-shard traffic.
func (e *Engine[P]) Send(src topo.ShardID, at sim.Time, origin topo.NodeID, dst topo.ShardID, p P) {
	if src == dst {
		e.arrivals[src].Schedule(at, p)
		return
	}
	if at < e.windowEnd {
		panic(fmt.Sprintf("shard: cross-shard send at %v inside window ending %v violates lookahead %v",
			at, e.windowEnd, e.cfg.Lookahead))
	}
	seq := e.seqs[origin]
	e.seqs[origin] = seq + 1
	e.outbox[src] = append(e.outbox[src], msg[P]{at: at, seq: seq, origin: origin, dst: dst, p: p})
}

// OnBarrier registers fn to run on the coordinator after every window's
// cross-shard messages have been delivered. All workers are parked at the
// barrier while fn runs, so it may freely inspect and drain state the
// shards produced during the window (journey buffers, counters). Every
// window ends in a barrier at every shard count, one shard included.
func (e *Engine[P]) OnBarrier(fn func()) { e.barrier = fn }

// Run executes events until every shard's clock reaches until (exclusive of
// events at exactly until, which stay queued for the next call), in
// lookahead windows that each end in a barrier. The windows depend only on
// the pending event times, so a schedule runs the same windows at every
// shard count.
func (e *Engine[P]) Run(until sim.Time) sim.Time {
	e.ensureWorkers()
	for {
		next := sim.Time(math.Inf(1))
		for _, s := range e.subs {
			if t := s.NextAt(); t < next {
				next = t
			}
		}
		if next >= until {
			break
		}
		end := next + e.cfg.Lookahead
		if end > until {
			end = until
		}
		e.runWindow(end)
		e.deliver()
		if e.barrier != nil {
			e.barrier()
		}
	}
	// No shard has work before until; advance every clock to the horizon so
	// successive calls observe monotone time.
	e.windowEnd = until
	for _, s := range e.subs {
		s.RunBefore(until)
	}
	return until
}

// ensureWorkers lazily starts one goroutine per shard beyond the first;
// shard 0 always runs on the caller's goroutine.
func (e *Engine[P]) ensureWorkers() {
	if e.started {
		return
	}
	e.started = true
	for i := 1; i < e.cfg.Shards; i++ {
		go e.worker(topo.ShardID(i))
	}
}

// worker is shard i's goroutine body. It only ever touches shard i's
// engine, projected through the typed index.
func (e *Engine[P]) worker(i topo.ShardID) {
	for end := range e.start[i] {
		e.subs[i].RunBefore(end)
		e.done <- struct{}{}
	}
}

// runWindow executes one causally closed window [windowEnd', end) on all
// shards in parallel. The start sends publish windowEnd and all prior
// barrier state to the workers; the done receives publish every shard's
// queue and outbox back to the coordinator.
func (e *Engine[P]) runWindow(end sim.Time) {
	e.windowEnd = end
	e.windows++
	for i := 1; i < e.cfg.Shards; i++ {
		e.start[i] <- end
	}
	e.subs[0].RunBefore(end)
	for i := 1; i < e.cfg.Shards; i++ {
		<-e.done
	}
}

// deliver merges every shard's outbox in compareMsgs order — a key
// independent of the shard count — and schedules the messages on their
// destination shards through their own pools: every worker is parked, so
// the coordinator may use them. The key is a strict total order, so the
// unstable sort gives the one order any stable sort would; slices.SortFunc
// also needs neither a closure nor a reflective swapper, so a barrier
// allocates nothing once merged has grown.
func (e *Engine[P]) deliver() {
	m := e.merged[:0]
	for s, out := range e.outbox {
		m = append(m, out...)
		clear(out) // the buffers are reused; hold no payload in them
		e.outbox[s] = out[:0]
	}
	if len(m) > 1 {
		slices.SortFunc(m, compareMsgs[P])
	}
	for i := range m {
		e.arrivals[m[i].dst].Schedule(m[i].at, m[i].p)
	}
	clear(m)
	e.exchanged += uint64(len(m))
	e.merged = m[:0]
}

// Close stops the worker goroutines. The engine must not be Run again.
func (e *Engine[P]) Close() {
	if e.closed {
		return
	}
	e.closed = true
	if !e.started {
		return
	}
	for i := 1; i < e.cfg.Shards; i++ {
		close(e.start[i])
	}
}
