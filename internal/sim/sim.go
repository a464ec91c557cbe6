// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine is deliberately minimal: a virtual clock and a binary min-heap
// of scheduled handlers, ordered by time with stable FIFO tie-breaking at
// equal timestamps. All higher layers (radio, MAC, routing, collection)
// schedule work exclusively through an *Engine, so a whole network run is a
// single sequential event loop — reproducible for a given seed and immune to
// data races by construction.
//
// Scheduling is fire-and-forget: Schedule and After return no handle, and a
// queued handler cannot be revoked. A caller that may want to skip work
// later keeps its own flag and checks it when the handler runs. The heap
// stores each event inline as a value, so steady-state scheduling performs
// no heap allocation once the queue's backing array has grown.
package sim

import (
	"fmt"
	"math"
)

// Time is virtual simulation time in seconds.
type Time float64

// Handler is a unit of scheduled work. It runs at its scheduled time with
// the engine's clock already advanced.
type Handler func()

// slot is one queued event. (at, seq) is a strict total order — seq is
// unique per engine — so the pop sequence does not depend on heap layout.
type slot struct {
	at  Time
	seq uint64 // FIFO tie-break among equal timestamps
	fn  Handler
}

func (s *slot) before(t *slot) bool {
	return s.at < t.at || (s.at == t.at && s.seq < t.seq)
}

// Engine owns the virtual clock and event queue. It is strictly
// single-consumer — every Schedule and Run mutates the heap — so under the
// sharded coordinator each instance is confined to the shard that drives
// it.
type Engine struct {
	// inv carries the build-tag-gated runtime invariant checks; in the
	// default build it is a zero-size no-op (see invariants_off.go). Kept
	// first so the zero-size variant costs no trailing padding.
	inv       engineInvariants
	now       Time
	seq       uint64
	queue     []slot // binary min-heap on (at, seq)
	processed uint64
	stopped   bool
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
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule runs fn at absolute time at. Scheduling in the past (before Now)
// panics: it is always a logic bug upstream, never a recoverable condition.
//
//dophy:hotpath
func (e *Engine) Schedule(at Time, fn Handler) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: schedule with nil handler")
	}
	s := slot{at: at, seq: e.seq, fn: fn}
	e.seq++
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
	e.inv.checkHeap(e)
}

// pop removes and returns the head slot. It uses Floyd's bottom-up variant:
// the hole left at the root walks down to a leaf along the smaller child,
// one comparison per level, and the last slot then sifts up from that leaf.
// The last slot nearly always belongs near the bottom, so this costs about
// half the comparisons of the textbook sift-down.
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

// After runs fn after delay d from the current time.
//
//dophy:hotpath
func (e *Engine) After(d Time, fn Handler) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.Schedule(e.now+d, fn)
}

// Stop halts the run loop after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Run executes events until the queue drains, Stop is called, or the next
// event lies beyond until (events at exactly until run; use math.Inf(1) for
// "no limit"). When it stops at the horizon it advances the clock to until,
// never backwards. It returns the time at which it stopped.
//
//dophy:hotpath
func (e *Engine) Run(until Time) Time {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		if e.queue[0].at > until {
			// Leave the event queued; advance clock to the horizon so
			// successive Run calls observe monotone time.
			if until > e.now {
				e.now = until
			}
			return e.now
		}
		next := e.pop()
		e.inv.checkHeap(e)
		e.now = next.at
		e.processed++
		//dophy:allow hotpathalloc -- event dispatch: handlers are closures vetted at their creation sites, which live in annotated hot paths
		next.fn()
	}
	return e.now
}

// RunAll executes events until the queue drains or Stop is called.
func (e *Engine) RunAll() Time {
	return e.Run(Time(math.Inf(1)))
}

// NextAt returns the scheduled time of the earliest pending event, or +Inf
// when the queue is empty. The shard barrier uses this to compute safe
// lookahead horizons without popping.
//
//dophy:hotpath
func (e *Engine) NextAt() Time {
	if len(e.queue) == 0 {
		return Time(math.Inf(1))
	}
	return e.queue[0].at
}

// RunBefore executes events strictly before horizon, then advances the
// clock to horizon so successive windows observe monotone time. Events at
// exactly horizon stay queued — the conservative-lookahead contract is that
// a window [start, horizon) owns only the events inside it, while arrivals
// injected at the barrier land at or after horizon. It returns the time at
// which it stopped (horizon, unless Stop was called).
//
//dophy:hotpath
func (e *Engine) RunBefore(horizon Time) Time {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		if e.queue[0].at >= horizon {
			break
		}
		next := e.pop()
		e.inv.checkHeap(e)
		e.now = next.at
		e.processed++
		//dophy:allow hotpathalloc -- event dispatch: handlers are closures vetted at their creation sites, which live in annotated hot paths
		next.fn()
	}
	if !e.stopped && e.now < horizon {
		e.now = horizon
	}
	return e.now
}
