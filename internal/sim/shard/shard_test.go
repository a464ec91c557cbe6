package shard

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dophy/internal/rng"
	"dophy/internal/sim"
	"dophy/internal/topo"
)

// newEngine returns an engine whose messages are handlers, each run as it
// arrives.
func newEngine(cfg Config) *Engine[sim.Handler] {
	return New(cfg, func(_ topo.ShardID, fn sim.Handler) { fn() })
}

// runWorkload drives a synthetic message-passing workload over n nodes
// partitioned into k contiguous shards and returns one execution log per
// node. Every node draws only from its own rng.Derive stream and logs only
// on its owner shard, so the logs are a full observable trace: if they are
// identical across shard counts, the executions were equivalent.
func runWorkload(t *testing.T, seed uint64, n, k int, until sim.Time) []string {
	t.Helper()
	const lookahead = sim.Time(0.05)
	owner := make([]topo.ShardID, n)
	for i := range owner {
		owner[i] = topo.ShardID(i * k / n)
	}
	e := newEngine(Config{Shards: k, Lookahead: lookahead, Nodes: n})
	defer e.Close()

	logs := make([]strings.Builder, n)
	streams := rng.NewStreams(seed, n)
	var tick func(id topo.NodeID) sim.Handler
	tick = func(id topo.NodeID) sim.Handler {
		return func() {
			sub := e.Sub(owner[id])
			now := sub.Now()
			u := streams[id].Float64()
			fmt.Fprintf(&logs[id], "tick id=%d t=%.9f u=%.9f\n", id, now, u)
			if next := now + 0.02 + sim.Time(u)*0.2; next < until {
				sub.Schedule(next, tick(id))
			}
			if u < 0.6 { // message a pseudo-random peer with latency >= lookahead
				peer := topo.NodeID(streams[id].Intn(n))
				at := now + lookahead + sim.Time(streams[id].Float64())*0.1
				e.Send(owner[id], at, id, owner[peer], func() {
					v := streams[peer].Float64()
					fmt.Fprintf(&logs[peer], "recv id=%d from=%d t=%.9f v=%.9f\n",
						peer, id, e.Sub(owner[peer]).Now(), v)
				})
			}
		}
	}
	for i := 0; i < n; i++ {
		e.Sub(owner[i]).Schedule(sim.Time(i)*0.001, tick(topo.NodeID(i)))
	}
	// Split the run to exercise repeated Run calls against the same engine.
	e.Run(until / 2)
	e.Run(until)

	out := make([]string, n)
	for i := range logs {
		out[i] = logs[i].String()
	}
	return out
}

func TestDeterministicAcrossShardCounts(t *testing.T) {
	const n = 12
	ref := runWorkload(t, 77, n, 1, 30)
	events := 0
	for _, l := range ref {
		events += strings.Count(l, "\n")
	}
	if events < 1000 {
		t.Fatalf("workload too small to be meaningful: %d log lines", events)
	}
	for _, k := range []int{2, 3, 4, 8} {
		got := runWorkload(t, 77, n, k, 30)
		for id := range ref {
			if got[id] != ref[id] {
				t.Fatalf("k=%d: node %d log differs from the single-shard run", k, id)
			}
		}
	}
}

func TestSendDeliversAtExactTime(t *testing.T) {
	e := newEngine(Config{Shards: 2, Lookahead: 1, Nodes: 4})
	defer e.Close()
	var remote, local sim.Time
	e.Sub(0).Schedule(0.5, func() {
		e.Send(0, e.Sub(0).Now()+1, 0, 1, func() {
			remote = e.Sub(1).Now()
		})
		// Same-shard send short-circuits but must still honour the time.
		e.Send(0, 2.25, 0, 0, func() {
			local = e.Sub(0).Now()
		})
	})
	e.Run(10)
	if remote != 1.5 || local != 2.25 {
		t.Fatalf("arrivals remote=%v local=%v, want 1.5 and 2.25", remote, local)
	}
	if e.Exchanged() != 1 {
		t.Fatalf("Exchanged = %d, want 1 (same-shard send must not hit the outbox)", e.Exchanged())
	}
}

func TestLookaheadViolationPanics(t *testing.T) {
	e := newEngine(Config{Shards: 2, Lookahead: 1, Nodes: 2})
	defer e.Close()
	e.Sub(0).Schedule(0.5, func() {
		// Arrival inside the current window: conservative contract broken.
		e.Send(0, e.Sub(0).Now()+0.1, 0, 1, func() {})
	})
	defer func() {
		if recover() == nil {
			t.Fatal("lookahead violation did not panic")
		}
	}()
	e.Run(10)
}

func TestIdleGapsSkipWindows(t *testing.T) {
	e := newEngine(Config{Shards: 2, Lookahead: 0.01, Nodes: 2})
	defer e.Close()
	fired := 0
	e.Sub(0).Schedule(0, func() { fired++ })
	e.Sub(1).Schedule(500, func() { fired++ })
	e.Sub(0).Schedule(1000, func() { fired++ })
	e.Run(2000)
	if fired != 3 {
		t.Fatalf("fired %d events, want 3", fired)
	}
	if w := e.Windows(); w > 6 {
		t.Fatalf("executed %d windows for 3 isolated events — idle gaps not skipped", w)
	}
	for s := topo.ShardID(0); s < 2; s++ {
		if now := e.Sub(s).Now(); now != 2000 {
			t.Fatalf("shard %d clock = %v, want 2000", s, now)
		}
	}
}

// TestRunHorizonIsExclusive pins Run's horizon at every shard count: an
// event at exactly until stays queued and runs on the next call, so a
// journey that finishes on an epoch cut lands in the same epoch at K=1 as
// at K=2. One shard runs the same windows as two, and its barriers fire.
func TestRunHorizonIsExclusive(t *testing.T) {
	windows := map[int]uint64{}
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			e := newEngine(Config{Shards: k, Lookahead: 0.5, Nodes: k})
			defer e.Close()
			barriers := uint64(0)
			e.OnBarrier(func() { barriers++ })
			var at []sim.Time
			last := topo.ShardID(k - 1)
			e.Sub(0).Schedule(1, func() { at = append(at, e.Sub(0).Now()) })
			e.Sub(last).Schedule(5, func() { at = append(at, e.Sub(last).Now()) })
			if now := e.Run(5); now != 5 {
				t.Fatalf("Run(5) returned %v, want 5", now)
			}
			if !slices.Equal(at, []sim.Time{1}) {
				t.Fatalf("after Run(5) events ran at %v, want [1]: the event at 5 must stay queued", at)
			}
			e.Run(6)
			if !slices.Equal(at, []sim.Time{1, 5}) {
				t.Fatalf("after Run(6) events ran at %v, want [1 5]", at)
			}
			if barriers == 0 || barriers != e.Windows() {
				t.Fatalf("OnBarrier fired %d times over %d windows, want once per window", barriers, e.Windows())
			}
			windows[k] = e.Windows()
		})
	}
	if windows[1] != windows[2] {
		t.Fatalf("one shard ran %d windows, two ran %d: the windows must not depend on K", windows[1], windows[2])
	}
}

// TestNewRejectsBadConfig: a shard count below one, and a non-positive
// lookahead at every shard count. With one shard a zero lookahead would
// make every window empty and Run would never return.
func TestNewRejectsBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{Shards: 0, Lookahead: 1},
		{Shards: 1, Lookahead: 0},
		{Shards: 1, Lookahead: -1},
		{Shards: 1, Lookahead: sim.Time(math.NaN())},
		{Shards: 2, Lookahead: 0},
	} {
		t.Run(fmt.Sprintf("shards=%d,lookahead=%v", cfg.Shards, cfg.Lookahead), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%+v) did not panic", cfg)
				}
			}()
			newEngine(cfg)
		})
	}
}

func TestProcessedSumsShards(t *testing.T) {
	e := newEngine(Config{Shards: 2, Lookahead: 0.5, Nodes: 2})
	defer e.Close()
	for i := 0; i < 5; i++ {
		e.Sub(0).Schedule(sim.Time(i)+0.1, func() {})
		e.Sub(1).Schedule(sim.Time(i)+0.2, func() {})
	}
	e.Run(sim.Time(math.Inf(1)))
	if got := e.Processed(); got != 10 {
		t.Fatalf("Processed = %d, want 10", got)
	}
}

// FuzzMergeKeyTotalOrder pins the barrier merge key (arrival time, origin
// node, per-origin seq) as a total order over any outbox content: sorting
// any shard-grouped concatenation of the same message multiset yields one
// merged order, so the delivery schedule is independent of the shard count
// and of the order outboxes are drained. A regression here would silently
// break TestShardedByteDeterminism on barrier-heavy workloads.
func FuzzMergeKeyTotalOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{1, 1, 1, 1, 1, 1})
	f.Add([]byte{9, 0, 9, 0, 7, 7, 7, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode a message multiset: coarse timestamps force (at) ties, and
		// per-origin counters mirror how Send stamps seqs, so the full
		// (at, origin, seq) key is unique by construction.
		// Each message's payload is its index in msgs, so the check below
		// compares whole messages, not only their keys.
		var msgs []msg[int]
		seqs := map[topo.NodeID]uint64{}
		for i := 0; i+1 < len(data); i += 2 {
			origin := topo.NodeID(data[i] % 7)
			at := sim.Time(data[i+1]%5) / 4
			msgs = append(msgs, msg[int]{at: at, origin: origin, seq: seqs[origin], p: len(msgs)})
			seqs[origin]++
		}

		// merge mimics deliver: group each message into its origin's outbox
		// under a k-shard owner map, concatenate the outboxes in shard
		// order, and sort by the merge key.
		merge := func(k int) []msg[int] {
			out := make([][]msg[int], k)
			for _, mm := range msgs {
				s := int(mm.origin) % k
				out[s] = append(out[s], mm)
			}
			var m []msg[int]
			for s := range out {
				m = append(m, out[s]...)
			}
			slices.SortFunc(m, compareMsgs[int])
			return m
		}

		want := merge(1)
		for i := 1; i < len(want); i++ {
			if compareMsgs(want[i-1], want[i]) >= 0 || compareMsgs(want[i], want[i-1]) <= 0 {
				t.Fatalf("merge order not strict at %d: %+v vs %+v", i, want[i-1], want[i])
			}
		}
		for _, k := range []int{2, 3, 4, 5} {
			got := merge(k)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("k=%d: merge order diverges at %d: got %+v want %+v", k, i, got[i], want[i])
				}
			}
		}
	})
}

// withProcs runs fn at GOMAXPROCS n and restores the old setting.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// awaitParked polls until shard i's worker has parked, yielding between
// reads.
func awaitParked[P any](t *testing.T, e *Engine[P], i topo.ShardID) {
	t.Helper()
	for n := 0; !e.workers[i].sleeping.Load(); n++ {
		if n > 10_000_000 {
			t.Fatalf("worker %d never parked", i)
		}
		runtime.Gosched()
	}
}

// awaitGoroutines polls until no more than n goroutines exist.
func awaitGoroutines(t *testing.T, n int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > n; i++ {
		if i > 10_000_000 {
			t.Fatalf("%d goroutines, want %d: a worker outlived Close", runtime.NumGoroutine(), n)
		}
		runtime.Gosched()
	}
}

// chain schedules a ping-pong between shard 0 and the last shard: each
// arrival logs its time and sends the next message one lookahead later.
func chain(e *Engine[sim.Handler], log *[]sim.Time, hops int) {
	last := topo.ShardID(e.Shards() - 1)
	var hop func(at topo.ShardID, left int) sim.Handler
	hop = func(at topo.ShardID, left int) sim.Handler {
		return func() {
			now := e.Sub(at).Now()
			*log = append(*log, now)
			if left > 0 {
				to := last - at
				e.Send(at, now+1, topo.NodeID(at), to, hop(to, left-1))
			}
		}
	}
	e.Sub(0).Schedule(0.5, hop(0, hops))
}

// TestParkedWorkerWakes: a worker that spun past its budget and parked
// between two Runs wakes for the second and runs the same schedule as one
// shard does.
func TestParkedWorkerWakes(t *testing.T) {
	withProcs(max(2, runtime.GOMAXPROCS(0)), func() {
		run := func(k int) []sim.Time {
			e := newEngine(Config{Shards: k, Lookahead: 1, Nodes: 2})
			defer e.Close()
			var log []sim.Time
			chain(e, &log, 20)
			e.Run(10)
			if k > 1 {
				if !e.spin {
					t.Fatal("two shards on two processors do not spin")
				}
				awaitParked(t, e, 1)
			}
			e.Run(100)
			return log
		}
		if one, two := run(1), run(2); !slices.Equal(one, two) {
			t.Fatalf("after a park, two shards ran %v, one ran %v", two, one)
		}
	})
}

// TestCloseStopsWorkers: Close leaves no worker behind, whether the worker
// was spinning at the barrier or parked.
func TestCloseStopsWorkers(t *testing.T) {
	withProcs(max(2, runtime.GOMAXPROCS(0)), func() {
		for _, parked := range []bool{false, true} {
			base := runtime.NumGoroutine()
			e := newEngine(Config{Shards: 2, Lookahead: 1, Nodes: 2})
			var log []sim.Time
			chain(e, &log, 5)
			e.Run(100)
			if parked {
				awaitParked(t, e, 1)
			}
			e.Close()
			awaitGoroutines(t, base)
		}
	})
}

// TestOneProcessorParks: with more shards than processors a waiter parks
// at once, and the run is the one-shard run.
func TestOneProcessorParks(t *testing.T) {
	withProcs(1, func() {
		e := newEngine(Config{Shards: 2, Lookahead: 1, Nodes: 2})
		defer e.Close()
		var log []sim.Time
		chain(e, &log, 20)
		e.Run(100)
		if e.spin {
			t.Fatal("two shards on one processor spin")
		}
		if len(log) != 21 {
			t.Fatalf("ran %d hops, want 21", len(log))
		}
		ref := runWorkload(t, 5, 12, 1, 20)
		got := runWorkload(t, 5, 12, 2, 20)
		if !slices.Equal(got, ref) {
			t.Fatal("two shards on one processor differ from one shard")
		}
	})
}
