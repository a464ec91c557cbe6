package experiment

import (
	"runtime"
	"testing"
	"time"

	"dophy/internal/collect"
	"dophy/internal/rng"
	"dophy/internal/sim"
)

// fedMark is what recordingFeeder stamps into a journey's Completed field,
// so the pool can tell a fed journey from one that never reached the sink.
const fedMark = sim.Time(-1)

// recordingFeeder is a sink-stage consumer that records the feed order and,
// every few journeys, stalls so the simulation side meets back-pressure.
type recordingFeeder struct {
	fed   []*collect.PacketJourney
	stall int
}

func (f *recordingFeeder) feed(j *collect.PacketJourney) {
	j.Completed = fedMark
	f.fed = append(f.fed, j)
	if f.stall > 0 && len(f.fed)%f.stall == 0 {
		time.Sleep(50 * time.Microsecond)
	}
}

// countingPool checks every recycled journey: it must have been fed, must
// come back exactly once, and the journeys handed to the stage but not yet
// recycled must never exceed the batches' total capacity.
type countingPool struct {
	t           *testing.T
	recycled    map[*collect.PacketJourney]int
	outstanding int
}

func (p *countingPool) recycle(j *collect.PacketJourney) {
	if j.Completed != fedMark {
		p.t.Fatalf("journey %d recycled before the sink fed it", j.Seq)
	}
	p.recycled[j]++
	if p.recycled[j] > 1 {
		p.t.Fatalf("journey %d recycled %d times", j.Seq, p.recycled[j])
	}
	p.outstanding--
}

// waitGoroutines polls until the goroutine count is back at or below want:
// a joined goroutine has finished its work but may take a moment to exit,
// and goroutines left by earlier tests may exit meanwhile.
func waitGoroutines(t *testing.T, want int, where string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, baseline %d", where, runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSinkStageOrderAndRecycling splits a journey stream at random epoch
// boundaries (which split batches at random points too), with and without a
// slow sink, and checks that every journey reaches the feeder once and in
// order, comes back to the pool once, that the journeys outstanding never
// exceed the batch capacity, and that no goroutine outlives an epoch.
func TestSinkStageOrderAndRecycling(t *testing.T) {
	for _, stall := range []int{0, 7} {
		r := rng.New(uint64(31 + stall))
		f := &recordingFeeder{stall: stall}
		p := &countingPool{t: t, recycled: map[*collect.PacketJourney]int{}}
		st := newSinkStage(f, p)
		base := runtime.NumGoroutine()
		var sent []*collect.PacketJourney
		for epoch := 0; epoch < 40; epoch++ {
			st.start()
			n := r.Intn(5 * sinkBatchLen)
			if epoch%5 == 0 {
				n = 0 // empty epochs hand off an empty batch
			}
			for i := 0; i < n; i++ {
				j := &collect.PacketJourney{Seq: int64(len(sent))}
				sent = append(sent, j)
				p.outstanding++
				st.add(j)
				if p.outstanding > sinkBatches*sinkBatchLen {
					t.Fatalf("stall %d: %d journeys outstanding, capacity %d", stall, p.outstanding, sinkBatches*sinkBatchLen)
				}
			}
			st.join()
			if p.outstanding != 0 {
				t.Fatalf("stall %d epoch %d: %d journeys not recycled after join", stall, epoch, p.outstanding)
			}
			if len(f.fed) != len(sent) {
				t.Fatalf("stall %d epoch %d: fed %d of %d journeys", stall, epoch, len(f.fed), len(sent))
			}
			for i := range sent {
				if f.fed[i] != sent[i] {
					t.Fatalf("stall %d: journey %d fed at position %d", stall, f.fed[i].Seq, i)
				}
			}
			if len(st.idle) != sinkBatches {
				t.Fatalf("stall %d epoch %d: %d idle batches after join, want %d", stall, epoch, len(st.idle), sinkBatches)
			}
			waitGoroutines(t, base, "after join")
		}
		if len(p.recycled) != len(sent) {
			t.Fatalf("stall %d: %d distinct journeys recycled, %d sent", stall, len(p.recycled), len(sent))
		}
	}
}

// TestRunEpochLeavesNoGoroutine checks that both engines' RunEpoch joins its
// sink goroutine before returning.
func TestRunEpochLeavesNoGoroutine(t *testing.T) {
	sc := smallScenario(23)
	base := runtime.NumGoroutine()
	s := NewSession(sc)
	for e := 0; e < 3; e++ {
		s.RunEpoch()
		waitGoroutines(t, base, "after Session.RunEpoch")
	}

	ss := NewShardedSession(shardTestScenario(), ShardSpec{Shards: 2, BeaconLatency: 0.015, FullSchemes: true})
	defer ss.Close()
	// The shard workers are the engine's own; the baseline includes them.
	base = runtime.NumGoroutine()
	for e := 0; e < 2; e++ {
		ss.RunEpoch()
		waitGoroutines(t, base, "after ShardedSession.RunEpoch")
	}
}

// TestSessionRecyclesJourneys checks that the session closes the loop:
// journey records fed in one epoch carry later packets. The subscriber
// keeps only the pointers' identities, never reading a record after it
// returns.
func TestSessionRecyclesJourneys(t *testing.T) {
	s := NewSession(smallScenario(5))
	seen := map[*collect.PacketJourney]bool{}
	reused := 0
	s.SubscribeJourneys(func(j *collect.PacketJourney) {
		if seen[j] {
			reused++
		}
		seen[j] = true
	})
	s.RunEpoch()
	s.RunEpoch()
	if reused == 0 {
		t.Fatalf("%d journeys, none on a recycled record", len(seen))
	}
}

// BenchmarkSessionRunEpoch steps a churn-forward-shaped session (12×12 grid,
// ParentChurn 0.3, 1 s generation, 60 s epochs) one epoch per op. Besides
// allocs/op it reports wait-ms/op: the simulation side's time blocked on the
// sink stage, waiting for a free batch or in the join at the epoch's end.
func BenchmarkSessionRunEpoch(b *testing.B) {
	sc := DefaultScenario()
	sc.Seed = 3
	sc.Topo = GridSpec(12)
	sc.Routing.RandomizeParentProb = 0.3
	sc.Collect.GenPeriod = 1
	sc.EpochLen = 60
	s := NewSession(sc)
	s.RunEpoch() // warm the pools
	b.ReportAllocs()
	b.ResetTimer()
	wait0 := s.bank.sink.waitNs
	for i := 0; i < b.N; i++ {
		s.RunEpoch()
	}
	b.ReportMetric(float64(s.bank.sink.waitNs-wait0)/1e6/float64(b.N), "wait-ms/op")
}
