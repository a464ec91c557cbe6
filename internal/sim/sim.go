// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine is deliberately minimal: a virtual clock, a binary-heap event
// queue with stable FIFO tie-breaking at equal timestamps, and cancellable
// timers. All higher layers (radio, MAC, routing, collection) schedule work
// exclusively through an *Engine, so a whole network run is a single
// sequential event loop — reproducible for a given seed and immune to data
// races by construction.
//
// Event recycling. Schedule draws Event structs from a per-engine free list
// and returns them to it once they fire or are cancelled, so steady-state
// scheduling performs no heap allocation. The corollary is an ownership
// rule: an *Event is live from Schedule until its handler runs or Cancel
// removes it, and must not be retained or queried after that — the engine
// may already have reused it for a later Schedule.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is virtual simulation time in seconds.
type Time float64

// Handler is a unit of scheduled work. It runs at its scheduled time with
// the engine's clock already advanced.
type Handler func()

// Event is a scheduled handler. Exported methods are read-only for callers;
// use Engine.Cancel to revoke one. Pointers are only valid while the event
// is pending (see the package comment on recycling); a held event supports
// only the two read-only probes, At and Cancelled, never a state change.
type Event struct {
	at     Time
	seq    uint64 // FIFO tie-break among equal timestamps
	fn     Handler
	index  int // heap index, -1 once popped or cancelled
	cancel bool
	engine *Engine
}

// At returns the event's scheduled time.
func (e *Event) At() Time { return e.at }

// Cancelled reports whether the event has been cancelled.
func (e *Event) Cancelled() bool { return e.cancel }

type eventHeap []*Event

// The heap methods are annotated individually: container/heap invokes them
// through an interface the call-graph engine cannot see from heap.Push/Pop
// call sites, so the annotation is what puts them under hotpathalloc.

//dophy:hotpath
func (h eventHeap) Len() int { return len(h) }

//dophy:hotpath
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

//dophy:hotpath
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

//dophy:hotpath
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}

//dophy:hotpath
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Engine owns the virtual clock and event queue. It is strictly
// single-consumer — every Schedule and Run mutates the heap — so under the
// sharded coordinator each instance is confined to the shard that drives
// it, which the annotation makes checkable.
//
//dophy:owner shard
type Engine struct {
	// inv carries the build-tag-gated runtime invariant checks; in the
	// default build it is a zero-size no-op (see invariants_off.go). Kept
	// first so the zero-size variant costs no trailing padding.
	inv       engineInvariants
	now       Time
	seq       uint64
	queue     eventHeap
	free      []*Event // recycled events awaiting reuse
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

// Pending returns the number of events still queued. Cancelled events are
// removed from the queue immediately, so they never inflate this count.
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule runs fn at absolute time at. Scheduling in the past (before Now)
// panics: it is always a logic bug upstream, never a recoverable condition.
//
//dophy:hotpath
func (e *Engine) Schedule(at Time, fn Handler) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: schedule with nil handler")
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		e.inv.onReuse(e, ev)
		ev.at, ev.seq, ev.fn, ev.cancel = at, e.seq, fn, false
	} else {
		//dophy:allow hotpathalloc -- free-list miss path: allocates only until the pool warms up
		ev = &Event{at: at, seq: e.seq, fn: fn, engine: e}
	}
	e.seq++
	heap.Push(&e.queue, ev)
	e.inv.checkHeap(e)
	return ev
}

// recycle returns a dead event (fired or cancelled) to the free list.
//
//dophy:hotpath
func (e *Engine) recycle(ev *Event) {
	e.inv.onRecycle(e, ev)
	ev.fn = nil // release the closure for GC
	e.free = append(e.free, ev)
}

// After runs fn after delay d from the current time.
//
//dophy:hotpath
func (e *Engine) After(d Time, fn Handler) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.Schedule(e.now+d, fn)
}

// Cancel removes a pending event from the queue immediately. Cancelling an
// already-fired or already-cancelled event is a no-op. The pointer must not
// be used after Cancel returns: the engine recycles cancelled events.
//
//dophy:hotpath
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.engine != e || ev.cancel || ev.index < 0 {
		return
	}
	e.inv.onCancel(e, ev)
	ev.cancel = true
	heap.Remove(&e.queue, ev.index)
	e.inv.checkHeap(e)
	e.recycle(ev)
}

// Stop halts the run loop after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Run executes events until the queue drains, Stop is called, or the clock
// would pass until (exclusive upper bound; use math.Inf(1) for "no limit").
// It returns the time at which it stopped.
//
//dophy:hotpath
func (e *Engine) Run(until Time) Time {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		next := e.queue[0]
		if next.at > until {
			// Leave the event queued; advance clock to the horizon so
			// successive Run calls observe monotone time.
			e.now = until
			return e.now
		}
		heap.Pop(&e.queue)
		e.inv.checkHeap(e)
		if next.cancel {
			// Unreachable under eager Cancel removal; kept as a guard.
			e.recycle(next)
			continue
		}
		e.now = next.at
		e.processed++
		//dophy:allow hotpathalloc -- event dispatch: handlers are closures vetted at their creation sites, which live in annotated hot paths
		next.fn()
		e.recycle(next)
	}
	return e.now
}

// RunAll executes events until the queue drains or Stop is called.
func (e *Engine) RunAll() Time {
	return e.Run(Time(math.Inf(1)))
}

// NextAt returns the scheduled time of the earliest pending event, or +Inf
// when the queue is empty. Cancelled events are removed eagerly, so they
// never shadow the true head. The shard barrier uses this to compute safe
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
		next := e.queue[0]
		if next.at >= horizon {
			break
		}
		heap.Pop(&e.queue)
		e.inv.checkHeap(e)
		if next.cancel {
			// Unreachable under eager Cancel removal; kept as a guard.
			e.recycle(next)
			continue
		}
		e.now = next.at
		e.processed++
		//dophy:allow hotpathalloc -- event dispatch: handlers are closures vetted at their creation sites, which live in annotated hot paths
		next.fn()
		e.recycle(next)
	}
	if !e.stopped && e.now < horizon {
		e.now = horizon
	}
	return e.now
}

// Ticker repeatedly schedules fn every period, starting at the current time
// plus phase. It returns a stop function. fn receives the tick index,
// starting at 0. Calling stop cancels the already-scheduled next event, so
// a stopped ticker leaves nothing in the queue. A non-positive period
// panics.
func (e *Engine) Ticker(phase, period Time, fn func(tick int)) (stop func()) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: ticker period %v must be positive", period))
	}
	stopped := false
	tick := 0
	var next *Event
	var schedule func()
	schedule = func() {
		next = e.After(phaseOrPeriod(tick, phase, period), func() {
			i := tick
			tick++
			schedule()
			fn(i)
		})
	}
	schedule()
	return func() {
		if stopped {
			return
		}
		stopped = true
		e.Cancel(next)
		next = nil
	}
}

func phaseOrPeriod(tick int, phase, period Time) Time {
	if tick == 0 {
		return phase
	}
	return period
}
