// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine is deliberately minimal: a virtual clock and a queue of
// scheduled handlers, ordered by time with stable FIFO tie-breaking at
// equal timestamps. All higher layers (radio, MAC, routing, collection)
// schedule work exclusively through an *Engine, so a whole network run is a
// single sequential event loop — reproducible for a given seed and immune to
// data races by construction.
//
// The queue has two parts. A binary min-heap holds arbitrary events, such
// as timers with random delays. Beside it, FIFO lanes hold events scheduled
// a fixed latency ahead: a layer that owns such a latency (a hop delay, a
// beacon latency) registers it with Lane, and every event scheduled exactly
// that far ahead is appended to the lane's ring instead of sifting through
// the heap. The clock never goes back, so a lane's events arrive already in
// time order. Dispatch takes the earliest of the heap top and the lane
// heads, so the pop sequence is the one a single heap would give.
//
// Scheduling is fire-and-forget: Schedule and After return no handle, and a
// queued handler cannot be revoked. A caller that may want to skip work
// later keeps its own flag and checks it when the handler runs. The heap
// and the lanes store each event inline as a value, so steady-state
// scheduling performs no heap allocation once their backing arrays have
// grown. A handler that needs data of its own (a hop's packet, a message's
// payload) is scheduled through a Pool, which binds it once and reuses it.
package sim

import (
	"fmt"
	"math"
	"slices"
)

// Time is virtual simulation time in seconds.
type Time float64

// Handler is a unit of scheduled work. It runs at its scheduled time with
// the engine's clock already advanced.
type Handler func()

// slot is one queued event. (at, seq) is a strict total order — seq is
// unique per engine — so the pop sequence does not depend on heap layout
// or on which part of the queue holds an event.
type slot struct {
	at  Time
	seq uint64 // FIFO tie-break among equal timestamps
	fn  Handler
}

// earlier is the queue's order: by time, then by scheduling sequence.
func earlier(at Time, seq uint64, thanAt Time, thanSeq uint64) bool {
	return at < thanAt || (at == thanAt && seq < thanSeq)
}

func (s *slot) before(t *slot) bool { return earlier(s.at, s.seq, t.at, t.seq) }

// lane is a FIFO ring of events scheduled d ahead of the clock at the time
// they were scheduled. Its events are nondecreasing in at and increasing in
// seq, so its head is its earliest event.
type lane struct {
	d    Time
	ring []slot // power-of-two length; grows to the lane's high-water mark
	head int    // index of the earliest event
	n    int    // events queued
}

// laneInitCap is a lane ring's capacity at registration (6 KiB). It covers
// the busiest hop lane of a facade run, so rings rarely grow once events
// flow.
const laneInitCap = 256

func (l *lane) tail() *slot { return &l.ring[(l.head+l.n-1)&(len(l.ring)-1)] }

func (l *lane) push(s slot) {
	if l.n == len(l.ring) {
		ring := make([]slot, 2*len(l.ring))
		k := copy(ring, l.ring[l.head:])
		copy(ring[k:], l.ring[:l.head])
		l.ring, l.head = ring, 0
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = s
	l.n++
}

func (l *lane) pop() slot {
	s := l.ring[l.head]
	l.ring[l.head] = slot{} // release the closure for GC
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	return s
}

// laneHead keys a non-empty lane by its earliest event, inline, so
// choosing the earliest lane reads no ring.
type laneHead struct {
	at   Time
	seq  uint64
	lane int
}

func (a *laneHead) before(b *laneHead) bool { return earlier(a.at, a.seq, b.at, b.seq) }

// Where the earliest pending event sits, as reported by head: srcHeap, or
// the index of a lane (>= 0).
const (
	srcNone = -2
	srcHeap = -1
)

// Engine owns the virtual clock and event queue. It is strictly
// single-consumer — every Schedule and Run mutates the queue — so under the
// sharded coordinator each instance is confined to the shard that drives
// it.
type Engine struct {
	// inv carries the build-tag-gated runtime invariant checks; in the
	// default build it is a zero-size no-op (see invariants_off.go). Kept
	// first so the zero-size variant costs no trailing padding.
	inv       engineInvariants
	now       Time
	seq       uint64
	queue     []slot     // binary min-heap on (at, seq)
	lanes     []lane     // sorted by d
	heads     []laneHead // the non-empty lanes' heads, a min-heap on (at, seq)
	rings     []slot     // initial rings for lanes yet to be registered
	inLanes   int        // events queued in lanes
	processed uint64
}

// New returns an engine with the clock at zero.
func New() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events still queued.
func (e *Engine) Pending() int { return len(e.queue) + e.inLanes }

// Lane registers the fixed latency d: from now on an event scheduled at
// exactly Now()+d is queued in a FIFO lane rather than the heap. Registering
// a latency twice is a no-op. Lanes change where events wait, never the
// order they run in, so the layer that owns a latency registers it. A
// negative, infinite or NaN d panics.
func (e *Engine) Lane(d Time) {
	if !(d >= 0) || math.IsInf(float64(d), 1) {
		panic(fmt.Sprintf("sim: lane latency %v must be finite and non-negative", d))
	}
	i := 0
	for i < len(e.lanes) && e.lanes[i].d < d {
		i++
	}
	if i < len(e.lanes) && e.lanes[i].d == d {
		return
	}
	if len(e.lanes) == cap(e.lanes) {
		// Room for eight lanes at first (collect registers one per attempt
		// of the default MAC budget), and their initial rings in one block.
		// heads can then never outgrow lanes.
		lanes := make([]lane, len(e.lanes), max(8, 2*cap(e.lanes)))
		copy(lanes, e.lanes)
		e.lanes = lanes
		e.heads = append(make([]laneHead, 0, cap(lanes)), e.heads...)
		e.rings = make([]slot, (cap(lanes)-len(lanes))*laneInitCap)
	}
	// The ring comes from set-up's block, not from the first events to use
	// the lane.
	ring := e.rings[:laneInitCap:laneInitCap]
	e.rings = e.rings[laneInitCap:]
	e.lanes = append(e.lanes, lane{})
	copy(e.lanes[i+1:], e.lanes[i:])
	e.lanes[i] = lane{d: d, ring: ring}
	// Lanes at or after i moved up one index; the heap of heads is keyed by
	// their slots, so renumbering keeps it ordered.
	for k := range e.heads {
		if e.heads[k].lane >= i {
			e.heads[k].lane++
		}
	}
}

// Schedule runs fn at absolute time at. Scheduling in the past (before Now)
// or at NaN panics: it is always a logic bug upstream, never a recoverable
// condition.
func (e *Engine) Schedule(at Time, fn Handler) {
	if !(at >= e.now) {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: schedule with nil handler")
	}
	s := slot{at: at, seq: e.seq, fn: fn}
	e.seq++
	if i := e.laneFor(at); i >= 0 {
		l := &e.lanes[i]
		l.push(s)
		e.inLanes++
		if l.n == 1 {
			e.heads = append(e.heads, laneHead{at: at, seq: s.seq, lane: i})
			e.siftUpHead(len(e.heads) - 1)
		}
	} else {
		e.push(s)
	}
	e.inv.checkQueue(e)
}

// laneFor returns the lane an event at time at joins, or -1 for the heap.
// The lane is the one whose latency puts at exactly Now()+d, provided at is
// not below that lane's tail, which keeps every lane sorted by (at, seq)
// whatever the caller does.
func (e *Engine) laneFor(at Time) int {
	ls := e.lanes
	if len(ls) == 0 || at < e.now+ls[0].d || at > e.now+ls[len(ls)-1].d {
		return -1
	}
	// First lane with now+d >= at; rounding is monotone, so that is the only
	// candidate for now+d == at.
	lo, hi := 0, len(ls)-1
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if e.now+ls[m].d < at {
			lo = m + 1
		} else {
			hi = m
		}
	}
	l := &ls[lo]
	if e.now+l.d != at || (l.n > 0 && at < l.tail().at) {
		return -1
	}
	return lo
}

// push adds s to the heap.
func (e *Engine) push(s slot) {
	e.queue = append(e.queue, s)
	q := e.queue
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = s
}

// pop removes and returns the heap's top slot. It uses Floyd's bottom-up
// variant: the hole left at the root walks down to a leaf along the smaller
// child, one comparison per level, and the last slot then sifts up from
// that leaf. The last slot nearly always belongs near the bottom, so this
// costs about half the comparisons of the textbook sift-down.
func (e *Engine) pop() slot {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = slot{} // release the closure for GC
	q = q[:n]
	e.queue = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].before(&q[c]) {
			c++
		}
		q[i] = q[c]
		i = c
	}
	for i > 0 {
		p := (i - 1) / 2
		if !last.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = last
	return top
}

// head reports the earliest pending event's time and where it sits:
// srcHeap, a lane index, or srcNone (at +Inf) when nothing is queued.
func (e *Engine) head() (Time, int) {
	if len(e.heads) == 0 {
		if len(e.queue) == 0 {
			return Time(math.Inf(1)), srcNone
		}
		return e.queue[0].at, srcHeap
	}
	h := &e.heads[0]
	if len(e.queue) > 0 {
		if q := &e.queue[0]; earlier(q.at, q.seq, h.at, h.seq) {
			return q.at, srcHeap
		}
	}
	return h.at, h.lane
}

// popLane removes and returns the head of the earliest lane.
func (e *Engine) popLane() slot {
	h := &e.heads[0]
	l := &e.lanes[h.lane]
	s := l.pop()
	e.inLanes--
	if l.n == 0 {
		last := len(e.heads) - 1
		e.heads[0] = e.heads[last]
		e.heads = e.heads[:last]
	} else {
		next := &l.ring[l.head]
		h.at, h.seq = next.at, next.seq
	}
	e.siftDownHead(0)
	return s
}

func (e *Engine) siftUpHead(k int) {
	h := e.heads
	for k > 0 {
		p := (k - 1) / 2
		if !h[k].before(&h[p]) {
			break
		}
		h[k], h[p] = h[p], h[k]
		k = p
	}
}

func (e *Engine) siftDownHead(k int) {
	h := e.heads
	n := len(h)
	for {
		c := 2*k + 1
		if c >= n {
			return
		}
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&h[k]) {
			return
		}
		h[k], h[c] = h[c], h[k]
		k = c
	}
}

// fire pops the earliest event, which head found at src, and runs it.
func (e *Engine) fire(src int) {
	var next slot
	if src == srcHeap {
		next = e.pop()
	} else {
		next = e.popLane()
	}
	e.inv.checkQueue(e)
	e.now = next.at
	e.processed++
	next.fn()
}

// After runs fn after delay d from the current time.
func (e *Engine) After(d Time, fn Handler) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.Schedule(e.now+d, fn)
}

// Pool schedules events that carry a value of type P to one handler, run,
// without allocating once it is warm. Each event rides a pooled carrier
// whose Handler is bound once, on the carrier's first use. A carrier parks
// itself, payload cleared, before it calls run, so run may schedule through
// the pool again and reuse the carrier it ran in, and a parked carrier keeps
// nothing alive. A Pool belongs to one engine and, like it, to one goroutine
// at a time.
//
// Two shards' pools are written from two cores on every event; the pad and
// grow's blocks keep them off shared cache lines wherever they are allocated.
type Pool[P any] struct {
	eng  *Engine
	run  func(P)
	free []*carrier[P]
	_    [64]byte // a cache line
}

// carrierBlock is how many carriers a pool makes at once: a block spans a
// multiple of 64 bytes, which the allocator aligns to cache lines.
const carrierBlock = 64

// carrier is one pooled event: its payload and its prebound handler.
type carrier[P any] struct {
	pool *Pool[P]
	p    P
	fn   Handler
}

// NewPool returns an empty pool of events on eng that each run run.
func NewPool[P any](eng *Engine, run func(P)) *Pool[P] {
	return &Pool[P]{eng: eng, run: run}
}

// Schedule runs run(p) at absolute time at. The event takes its place in
// the engine's (at, seq) order exactly as Engine.Schedule's would.
func (pl *Pool[P]) Schedule(at Time, p P) {
	if len(pl.free) == 0 {
		pl.grow()
	}
	k := len(pl.free) - 1
	c := pl.free[k]
	pl.free = pl.free[:k]
	if c.fn == nil {
		c.fn = c.fire // bound on first use, as binding allocates
	}
	c.p = p
	pl.eng.Schedule(at, c.fn)
}

// grow parks a new block of carriers; only a pool that runs dry allocates.
func (pl *Pool[P]) grow() {
	blk := make([]carrier[P], carrierBlock)
	pl.free = slices.Grow(pl.free, carrierBlock)
	for i := range blk {
		blk[i].pool = pl
		pl.free = append(pl.free, &blk[i])
	}
}

// fire parks c, payload cleared, then runs its payload.
func (c *carrier[P]) fire() {
	pl, p := c.pool, c.p
	var zero P
	c.p = zero
	pl.free = append(pl.free, c)
	pl.run(p)
}

// Run executes events until the queue drains or the next event lies beyond
// until (events at exactly until run; use math.Inf(1) for "no limit"). When
// it stops at the horizon it advances the clock to until, never backwards.
// It returns the time at which it stopped.
func (e *Engine) Run(until Time) Time {
	for {
		at, src := e.head()
		if src == srcNone {
			break
		}
		if at > until {
			// Leave the event queued; advance clock to the horizon so
			// successive Run calls observe monotone time.
			if until > e.now {
				e.now = until
			}
			return e.now
		}
		e.fire(src)
	}
	return e.now
}

// NextAt returns the scheduled time of the earliest pending event, or +Inf
// when the queue is empty. The shard barrier uses this to compute safe
// lookahead horizons without popping.
func (e *Engine) NextAt() Time {
	at, _ := e.head()
	return at
}

// RunBefore executes events strictly before horizon, then advances the
// clock to horizon so successive windows observe monotone time. Events at
// exactly horizon stay queued — the conservative-lookahead contract is that
// a window [start, horizon) owns only the events inside it, while arrivals
// injected at the barrier land at or after horizon. It returns the time at
// which it stopped: horizon, or the clock if that is already past it.
func (e *Engine) RunBefore(horizon Time) Time {
	for {
		at, src := e.head()
		if at >= horizon || src == srcNone {
			break
		}
		e.fire(src)
	}
	if e.now < horizon {
		e.now = horizon
	}
	return e.now
}
