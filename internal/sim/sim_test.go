package sim

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var got []Time
	for _, at := range []Time{5, 1, 3, 2, 4} {
		at := at
		e.Schedule(at, func() { got = append(got, at) })
	}
	e.Run(Time(math.Inf(1)))
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("ran %d events, want 5", len(got))
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1, func() { got = append(got, i) })
	}
	e.Run(Time(math.Inf(1)))
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	e := New()
	e.Schedule(2.5, func() {
		if e.Now() != 2.5 {
			t.Errorf("Now() = %v inside event at 2.5", e.Now())
		}
	})
	end := e.Run(Time(math.Inf(1)))
	if end != 2.5 {
		t.Fatalf("Run returned %v, want 2.5", end)
	}
}

func TestAfter(t *testing.T) {
	e := New()
	var at Time
	e.Schedule(1, func() {
		e.After(0.5, func() { at = e.Now() })
	})
	e.Run(Time(math.Inf(1)))
	if at != 1.5 {
		t.Fatalf("After fired at %v, want 1.5", at)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New()
	e.Schedule(5, func() {})
	e.Run(Time(math.Inf(1)))
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(1, func() {})
}

func TestNilHandlerPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	e.Schedule(1, nil)
}

func TestScheduleSteadyStateAllocs(t *testing.T) {
	if InvariantsEnabled {
		t.Skip("dophy_invariants build trades allocation-freedom for checking")
	}
	e := New()
	e.Lane(0.5)
	// Warm the heap's and the lane's backing arrays.
	for i := 0; i < 64; i++ {
		e.Schedule(Time(i), func() {})
		e.After(0.5, func() {})
	}
	e.Run(Time(math.Inf(1)))
	e.After(0.5, func() {})
	if len(e.queue) != 0 || e.inLanes != 1 {
		t.Fatalf("lane-latency event queued in the heap (heap %d, lanes %d)", len(e.queue), e.inLanes)
	}
	e.Run(Time(math.Inf(1)))
	allocs := testing.AllocsPerRun(100, func() {
		e.Schedule(e.Now()+1, func() {})
		e.After(0.5, func() {})
		e.Run(Time(math.Inf(1)))
	})
	// The func literals capture nothing, so they are static values; the
	// queued slots live inline in the warmed heap and lane ring.
	if allocs > 0 {
		t.Fatalf("schedule/run cycle allocates %.1f objects, want 0", allocs)
	}
}

func TestLaneRejectsBadLatency(t *testing.T) {
	for _, d := range []Time{Time(math.NaN()), Time(math.Inf(1)), Time(math.Inf(-1)), -0.25} {
		t.Run(fmt.Sprint(d), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("Lane(%v) did not panic", d)
				}
			}()
			New().Lane(d)
		})
	}
}

func TestScheduleNaNPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling at NaN did not panic")
		}
	}()
	e.Schedule(Time(math.NaN()), func() {})
}

func TestLaneRegistrationIdempotent(t *testing.T) {
	e := New()
	for _, d := range []Time{0.5, 0.25, 0.5, 0.25, 0} {
		e.Lane(d)
	}
	if len(e.lanes) != 3 {
		t.Fatalf("%d lanes after registering 0.5, 0.25 and 0, want 3", len(e.lanes))
	}
	for i := 1; i < len(e.lanes); i++ {
		if e.lanes[i-1].d >= e.lanes[i].d {
			t.Fatalf("lanes not sorted by latency: %v then %v", e.lanes[i-1].d, e.lanes[i].d)
		}
	}
}

// TestLaneEventsInterleaveWithHeap mixes lane and heap events at equal
// times, with a lane registered while another holds events: they must pop
// in scheduling order, as from one heap.
func TestLaneEventsInterleaveWithHeap(t *testing.T) {
	e := New()
	var got []int
	add := func(id int, at Time) { e.Schedule(at, func() { got = append(got, id) }) }
	e.Lane(1)
	add(0, 1)   // lane 1
	add(1, 1.5) // heap: no lane is 1.5 ahead
	add(2, 1)   // lane 1
	e.Lane(0.5)
	add(3, 0.5)  // lane 0.5
	add(4, 0.75) // heap
	e.Run(0.5)
	add(5, 1)   // lane 0.5, tied with 0 and 2
	add(6, 1.5) // lane 1, tied with the heap's 1
	e.Run(0.75)
	add(7, 1) // heap, tied with three lane events
	if e.Pending() != 6 || len(e.queue) != 2 {
		t.Fatalf("Pending %d with %d in the heap, want 6 and 2", e.Pending(), len(e.queue))
	}
	e.Run(Time(math.Inf(1)))
	want := []int{3, 4, 0, 2, 5, 7, 1, 6}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("pop order %v, want %v", got, want)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after drain", e.Pending())
	}
}

// TestPoolEventsKeepScheduleOrder: a pooled event takes its place in the
// engine's (at, seq) order like any other, so pooled, heap and lane events
// scheduled at equal times run in the order they were scheduled.
func TestPoolEventsKeepScheduleOrder(t *testing.T) {
	e := New()
	var got []int
	pl := NewPool(e, func(id int) { got = append(got, id) })
	add := func(id int, at Time) { e.Schedule(at, func() { got = append(got, id) }) }
	e.Lane(1)
	pl.Schedule(1, 0)   // lane
	add(1, 1)           // lane
	pl.Schedule(0.5, 2) // heap
	pl.Schedule(1.5, 3) // heap
	add(4, 0.5)         // heap
	e.Run(0.5)
	pl.Schedule(1, 5)   // heap: 0.5 ahead, and no lane is
	pl.Schedule(1.5, 6) // lane, tied with the heap's 3
	add(7, 1.5)         // lane
	if len(e.queue) != 2 || e.inLanes != 4 {
		t.Fatalf("%d events in the heap and %d in lanes, want 2 and 4", len(e.queue), e.inLanes)
	}
	e.Run(Time(math.Inf(1)))
	want := []int{2, 4, 0, 1, 5, 3, 6, 7}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("pop order %v, want %v", got, want)
	}
}

// TestPoolHandlerReusesItsCarrier: a carrier is parked before its handler
// runs, so a handler that schedules through its own pool takes the very
// carrier it ran in. A chain of events then needs one carrier however long
// it is, and once warm it allocates nothing.
func TestPoolHandlerReusesItsCarrier(t *testing.T) {
	if InvariantsEnabled {
		t.Skip("dophy_invariants build trades allocation-freedom for checking")
	}
	e := New()
	e.Lane(0.5)
	var pl *Pool[int]
	var ran []*carrier[int] // the carrier each event of the first chain ran in
	record := true
	pl = NewPool(e, func(left int) {
		if record {
			ran = append(ran, pl.free[len(pl.free)-1])
		}
		if left > 0 {
			pl.Schedule(e.Now()+0.5, left-1)
		}
	})
	pl.Schedule(0, 100)
	e.Run(Time(math.Inf(1)))
	if len(pl.free) != carrierBlock {
		t.Fatalf("a 100-event chain left %d carriers, want one block of %d", len(pl.free), carrierBlock)
	}
	c := pl.free[carrierBlock-1]
	for i, r := range ran {
		if r != c {
			t.Fatalf("event %d of the chain ran in another carrier", i)
		}
	}
	record = false
	allocs := testing.AllocsPerRun(100, func() {
		pl.Schedule(e.Now()+1, 10)
		e.Run(Time(math.Inf(1)))
	})
	if allocs > 0 {
		t.Fatalf("pooled schedule/run cycle allocates %.1f objects, want 0", allocs)
	}
	if len(pl.free) != carrierBlock || pl.free[carrierBlock-1] != c {
		t.Fatalf("the warm chain changed carriers: %d parked", len(pl.free))
	}
}

// TestParkedCarrierHoldsNoPayload: a carrier drops its payload when it
// parks, so a pool never keeps a payload (a journey, say) alive after its
// event has run.
func TestParkedCarrierHoldsNoPayload(t *testing.T) {
	e := New()
	ran := 0
	pl := NewPool(e, func(p *[64]byte) { ran++ })
	for i := 0; i < carrierBlock+8; i++ {
		pl.Schedule(Time(i%3), new([64]byte))
	}
	e.Run(Time(math.Inf(1)))
	if ran != carrierBlock+8 || len(pl.free) != 2*carrierBlock {
		t.Fatalf("%d events ran and %d carriers parked, want %d and %d", ran, len(pl.free), carrierBlock+8, 2*carrierBlock)
	}
	for i, c := range pl.free {
		if c.p != nil {
			t.Fatalf("parked carrier %d still holds its payload", i)
		}
	}
}

// TestScheduleBelowLaneTailGoesToHeap: an event at Now()+d that would sort
// before the lane's tail must not join the lane. The clock never goes back,
// so this cannot happen through the public API; the test plants a later
// tail directly to check the guard that keeps each lane sorted whatever its
// callers do.
func TestScheduleBelowLaneTailGoesToHeap(t *testing.T) {
	e := New()
	e.Lane(1)
	var got []string
	e.Schedule(1, func() { got = append(got, "head") })
	e.Schedule(1, func() { got = append(got, "tail") })
	l := &e.lanes[0]
	l.tail().at = 1.5
	e.Schedule(1, func() { got = append(got, "below") })
	if len(e.queue) != 1 || l.n != 2 {
		t.Fatalf("below-tail event not in the heap (heap %d, lane %d)", len(e.queue), l.n)
	}
	if at := e.NextAt(); at != 1 {
		t.Fatalf("NextAt = %v, want 1", at)
	}
	e.Run(Time(math.Inf(1)))
	if fmt.Sprint(got) != "[head below tail]" {
		t.Fatalf("pop order %v, want [head below tail]", got)
	}
}

func TestRunHorizon(t *testing.T) {
	e := New()
	var fired []Time
	for _, at := range []Time{1, 2, 3} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	end := e.Run(2)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 1 and 2", fired)
	}
	if end != 2 {
		t.Fatalf("Run(2) returned %v", end)
	}
	// Remaining event still fires on a later run.
	e.Run(Time(math.Inf(1)))
	if len(fired) != 3 {
		t.Fatalf("event after horizon lost: %v", fired)
	}
}

// TestRunHorizonBehindClockKeepsTime is the regression test for Run with a
// horizon already behind the clock: it must run nothing and leave Now where
// it is, as RunBefore does, instead of moving the clock backwards.
func TestRunHorizonBehindClockKeepsTime(t *testing.T) {
	e := New()
	fired := 0
	e.Schedule(10, func() { fired++ })
	e.RunBefore(5)
	if end := e.Run(3); end != 5 || e.Now() != 5 {
		t.Fatalf("Run(3) at Now 5 returned %v with Now %v, want 5 and 5", end, e.Now())
	}
	if fired != 0 {
		t.Fatal("Run(3) fired an event at 10")
	}
	// Scheduling between the stale horizon and the clock is still the past.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("schedule at 4 after Run(3) at Now 5 did not panic")
			}
		}()
		e.Schedule(4, func() {})
	}()
	e.Run(Time(math.Inf(1)))
	if fired != 1 || e.Now() != 10 {
		t.Fatalf("drain fired %d events ending at %v, want 1 at 10", fired, e.Now())
	}
}

func TestProcessedCount(t *testing.T) {
	e := New()
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run(Time(math.Inf(1)))
	if e.Processed() != 7 {
		t.Fatalf("Processed() = %d, want 7", e.Processed())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := New()
	var order []string
	e.Schedule(1, func() {
		order = append(order, "a")
		e.Schedule(1.5, func() { order = append(order, "nested") })
	})
	e.Schedule(2, func() { order = append(order, "b") })
	e.Run(Time(math.Inf(1)))
	want := []string{"a", "nested", "b"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// Property: for any batch of event times, execution order is a sorted,
// complete permutation of the schedule.
func TestQuickOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		e := New()
		var got []Time
		for _, r := range raw {
			at := Time(r) / 16
			e.Schedule(at, func() { got = append(got, at) })
		}
		e.Run(Time(math.Inf(1)))
		if len(got) != len(raw) {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < 1000; j++ {
			e.Schedule(Time(j%97), func() {})
		}
		e.Run(Time(math.Inf(1)))
	}
}

func TestNextAtEmptyQueue(t *testing.T) {
	e := New()
	if got := e.NextAt(); !math.IsInf(float64(got), 1) {
		t.Fatalf("NextAt on empty queue = %v, want +Inf", got)
	}
}

func TestNextAtTracksHead(t *testing.T) {
	e := New()
	e.Schedule(5, func() {})
	if got := e.NextAt(); got != 5 {
		t.Fatalf("NextAt = %v, want 5", got)
	}
	e.Schedule(2, func() {})
	if got := e.NextAt(); got != 2 {
		t.Fatalf("NextAt after earlier schedule = %v, want 2", got)
	}
}

// TestNextAtCancelReschedule keeps its name from when the head could be
// cancelled; with Cancel gone the head leaves the queue by being popped.
func TestNextAtCancelReschedule(t *testing.T) {
	e := New()
	e.Schedule(1, func() {})
	e.Schedule(3, func() {})
	e.Run(1)
	if got := e.NextAt(); got != 3 {
		t.Fatalf("NextAt after popping head = %v, want 3", got)
	}
	// The popped slot is reused; a new schedule must surface at the head
	// with its new time, not any stale one.
	e.Schedule(2, func() {})
	if got := e.NextAt(); got != 2 {
		t.Fatalf("NextAt after reschedule = %v, want 2", got)
	}
	e.Schedule(1.5, func() {})
	if got := e.NextAt(); got != 1.5 {
		t.Fatalf("NextAt after earlier schedule = %v, want 1.5", got)
	}
	e.RunBefore(2)
	if got := e.NextAt(); got != 2 {
		t.Fatalf("NextAt after popping the new head = %v, want 2", got)
	}
	e.Run(Time(math.Inf(1)))
	if got := e.NextAt(); !math.IsInf(float64(got), 1) {
		t.Fatalf("NextAt after drain = %v, want +Inf", got)
	}
}

func TestRunBeforeExcludesHorizon(t *testing.T) {
	e := New()
	var got []Time
	for _, at := range []Time{1, 2, 3, 4} {
		at := at
		e.Schedule(at, func() { got = append(got, at) })
	}
	end := e.RunBefore(3)
	if end != 3 {
		t.Fatalf("RunBefore returned %v, want 3", end)
	}
	if e.Now() != 3 {
		t.Fatalf("Now after RunBefore = %v, want 3", e.Now())
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("RunBefore(3) ran %v, want [1 2]", got)
	}
	// An event at exactly the horizon stays queued for the next window.
	if at := e.NextAt(); at != 3 {
		t.Fatalf("NextAt after window = %v, want 3", at)
	}
	e.RunBefore(Time(math.Inf(1)))
	if len(got) != 4 {
		t.Fatalf("second window ran %d events total, want 4", len(got))
	}
}

func TestRunBeforeAdvancesClockWhenIdle(t *testing.T) {
	e := New()
	e.RunBefore(7)
	if e.Now() != 7 {
		t.Fatalf("Now after idle RunBefore = %v, want 7", e.Now())
	}
	// Scheduling before the advanced clock must panic like any past schedule.
	defer func() {
		if recover() == nil {
			t.Fatal("schedule before advanced horizon did not panic")
		}
	}()
	e.Schedule(6, func() {})
}

// TestRunBeforeRescheduleInsideWindow has a handler inside the window
// schedule work beyond the horizon: the window must not run it, and NextAt
// must expose it to the barrier.
func TestRunBeforeRescheduleInsideWindow(t *testing.T) {
	e := New()
	var fired []string
	e.Schedule(1, func() {
		e.Schedule(10, func() { fired = append(fired, "late") })
		fired = append(fired, "first")
	})
	e.RunBefore(5)
	if len(fired) != 1 || fired[0] != "first" {
		t.Fatalf("window ran %v, want [first]", fired)
	}
	if at := e.NextAt(); at != 10 {
		t.Fatalf("NextAt = %v, want 10", at)
	}
	e.Run(Time(math.Inf(1)))
	if len(fired) != 2 || fired[1] != "late" {
		t.Fatalf("drain ran %v, want [first late]", fired)
	}
}

// steadyTimer is one self-rescheduling timer of the steady-state
// benchmarks.
type steadyTimer struct {
	w      *steadyWorkload
	lo, hi Time   // reschedule delay range
	fixed  []Time // if set, reschedule at one of these instead
	fn     Handler
}

func (t *steadyTimer) fire() {
	w := t.w
	w.fired++
	if w.fired >= w.limit {
		// The measured events are done: stop the clock and let the queue
		// drain without rescheduling.
		if w.fired == w.limit {
			w.b.StopTimer()
		}
		return
	}
	// xorshift64: a fixed stream, so every run dispatches the same events.
	w.x ^= w.x << 13
	w.x ^= w.x >> 7
	w.x ^= w.x << 17
	u := Time(w.x>>11) / (1 << 53)
	if t.fixed == nil {
		w.e.After(t.lo+u*(t.hi-t.lo), t.fn)
		return
	}
	// Attempt k+1 with probability 0.7·0.3^k, like ARQ on a 30%-loss link.
	k := 0
	for k < len(t.fixed)-1 && u < 0.3 {
		k++
		u /= 0.3
	}
	w.e.After(t.fixed[k], t.fn)
}

type steadyWorkload struct {
	b            *testing.B
	e            *Engine
	x            uint64
	fired, limit int
}

// runSteadyState drives the steady-state benchmarks' queue: about 5,000
// far timers (0.5–30 s ahead, beacon-like) under 170 near-term chains that
// first fire 30–100 ms in. The chains reschedule at random 30–100 ms delays,
// or, given fixed latencies, at those, registered as lanes.
func runSteadyState(b *testing.B, fixed []Time) {
	w := &steadyWorkload{b: b, e: New(), x: 0x9e3779b97f4a7c15, limit: math.MaxInt}
	add := func(n int, lo, hi Time, fixed []Time) {
		for i := 0; i < n; i++ {
			t := &steadyTimer{w: w, lo: lo, hi: hi, fixed: fixed}
			t.fn = t.fire
			w.e.After(lo+(hi-lo)*Time(i)/Time(n), t.fn)
		}
	}
	for _, d := range fixed {
		w.e.Lane(d)
	}
	add(5000, 0.5, 30, nil)
	add(170, 0.03, 0.1, fixed)
	// Let the queue mix for a minute of virtual time before measuring.
	w.e.Run(60)
	w.fired, w.limit = 0, b.N
	b.ReportAllocs()
	b.ResetTimer()
	w.e.Run(Time(math.Inf(1)))
}

// BenchmarkEngineSteadyState reports ns per dispatched event on a queue
// shaped like a 2500-node forwarding run: about 5,000 far timers under 170
// near-term chains that each reschedule 30–100 ms ahead (ARQ- and
// hop-like), so roughly nine schedules in ten land within 100 ms while the
// heap holds about 5,170 events. No delay repeats, so every event goes
// through the heap. allocs/op must read 0.
func BenchmarkEngineSteadyState(b *testing.B) {
	runSteadyState(b, nil)
}

// BenchmarkEngineSteadyStateLanes is BenchmarkEngineSteadyState with the
// near-term chains rescheduling at fixed latencies, the way collect's hop
// delays do (10 ms plus 5 ms per attempt, eight attempts): those events
// ride FIFO lanes while the far timers stay in the heap. allocs/op must
// read 0.
func BenchmarkEngineSteadyStateLanes(b *testing.B) {
	hops := make([]Time, 8)
	for a := range hops {
		hops[a] = 0.01 + 0.005*Time(a+1)
	}
	runSteadyState(b, hops)
}
