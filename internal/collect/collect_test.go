package collect

import (
	"reflect"
	"testing"

	"dophy/internal/mac"
	"dophy/internal/radio"
	"dophy/internal/rng"
	"dophy/internal/routing"
	"dophy/internal/sim"
	"dophy/internal/topo"
	"dophy/internal/trace"
)

// fixedRouter routes along an explicit parent table; -1 means no route.
type fixedRouter struct {
	parents []topo.NodeID
}

func (f *fixedRouter) Parent(id topo.NodeID) (topo.NodeID, bool) {
	p := f.parents[id]
	return p, p >= 0
}
func (f *fixedRouter) OnDataResult(from, to topo.NodeID, res mac.Result) {}

func chainNetwork(t *testing.T, n int, loss float64, parents []topo.NodeID) (*Network, *sim.Engine, *trace.Recorder) {
	t.Helper()
	tp := topo.Chain(n, 10, 10.5)
	eng := sim.New()
	model := radio.NewStaticUniformLoss(tp, loss)
	rec := trace.NewRecorder(tp.LinkTable())
	arq := mac.New(mac.DefaultConfig(), model, rng.New(3), rec)
	if parents == nil {
		parents = make([]topo.NodeID, n)
		parents[0] = -1
		for i := 1; i < n; i++ {
			parents[i] = topo.NodeID(i - 1)
		}
	}
	nw := New(DefaultConfig(), eng, tp, arq, &fixedRouter{parents}, rng.New(4), rec)
	return nw, eng, rec
}

func TestLosslessChainDelivery(t *testing.T) {
	nw, eng, rec := chainNetwork(t, 4, 0, nil)
	var journeys []*PacketJourney
	nw.Subscribe(func(j *PacketJourney) { journeys = append(journeys, j) })
	nw.Start()
	eng.Run(100)
	if len(journeys) == 0 {
		t.Fatal("no journeys completed")
	}
	for _, j := range journeys {
		if !j.Delivered {
			t.Fatalf("lossless journey dropped: %+v", j)
		}
		// Path length must equal origin's hop distance.
		if len(j.Hops) != int(j.Origin) {
			t.Fatalf("origin %d has %d hops", j.Origin, len(j.Hops))
		}
		// Hops must walk the chain to the sink with single attempts.
		for hi, h := range j.Hops {
			wantFrom := j.Origin - topo.NodeID(hi)
			if h.Link.From != wantFrom || h.Link.To != wantFrom-1 {
				t.Fatalf("hop %d link %v, origin %d", hi, h.Link, j.Origin)
			}
			if h.Attempts != 1 || h.Observed != 1 {
				t.Fatalf("lossless hop used %d attempts", h.Attempts)
			}
		}
		if j.Completed < j.Generated {
			t.Fatalf("journey completed before generation: %+v", j)
		}
	}
	if rec.Generated == 0 || rec.Delivered != rec.Generated-int64(pendingInFlight(journeys, rec)) {
		// All completed journeys delivered; in-flight ones are neither.
		if rec.Delivered == 0 {
			t.Fatal("trace recorded no deliveries")
		}
	}
}

// pendingInFlight counts generated packets that had not completed by the
// time the engine stopped.
func pendingInFlight(journeys []*PacketJourney, rec *trace.Recorder) int64 {
	return rec.Generated - int64(len(journeys))
}

func TestLossyChainDropsRecorded(t *testing.T) {
	tp := topo.Chain(3, 10, 10.5)
	eng := sim.New()
	model := radio.NewStaticUniformLoss(tp, 0.7) // brutal links
	rec := trace.NewRecorder(tp.LinkTable())
	arq := mac.New(mac.Config{MaxRetx: 1}, model, rng.New(5), rec)
	parents := []topo.NodeID{-1, 0, 1}
	nw := New(DefaultConfig(), eng, tp, arq, &fixedRouter{parents}, rng.New(6), rec)
	drops := 0
	nw.Subscribe(func(j *PacketJourney) {
		if !j.Delivered {
			if j.Drop != DropRetries {
				t.Errorf("unexpected drop reason %v", j.Drop)
			}
			drops++
		}
	})
	nw.Start()
	eng.Run(500)
	if drops == 0 {
		t.Fatal("no retry drops on a 70%-loss chain")
	}
	if rec.Dropped == 0 {
		t.Fatal("trace did not record drops")
	}
}

func TestNoRouteDrop(t *testing.T) {
	// Node 2 routes to node 1 which has no parent.
	nw, eng, _ := chainNetwork(t, 3, 0, []topo.NodeID{-1, -1, 1})
	var reasons []DropReason
	nw.Subscribe(func(j *PacketJourney) {
		if j.Origin == 2 {
			reasons = append(reasons, j.Drop)
		}
	})
	nw.Start()
	eng.Run(50)
	if len(reasons) == 0 {
		t.Fatal("no journeys from node 2")
	}
	for _, r := range reasons {
		if r != DropNoRoute {
			t.Fatalf("drop reason = %v, want no-route", r)
		}
	}
}

func TestTTLDropOnRoutingLoop(t *testing.T) {
	// 1 -> 2 -> 1 loop.
	nw, eng, _ := chainNetwork(t, 3, 0, []topo.NodeID{-1, 2, 1})
	sawTTL := false
	nw.Subscribe(func(j *PacketJourney) {
		if j.Drop == DropTTL {
			sawTTL = true
			if len(j.Hops) != DefaultConfig().TTL {
				t.Errorf("TTL drop after %d hops, want %d", len(j.Hops), DefaultConfig().TTL)
			}
		}
	})
	nw.Start()
	eng.Run(100)
	if !sawTTL {
		t.Fatal("routing loop never hit TTL")
	}
}

func TestObservedMatchesAttemptsWithoutAckLoss(t *testing.T) {
	tp := topo.Chain(4, 10, 10.5)
	eng := sim.New()
	model := radio.NewStaticUniformLoss(tp, 0.4)
	rec := trace.NewRecorder(tp.LinkTable())
	arq := mac.New(mac.Config{MaxRetx: 7}, model, rng.New(7), rec)
	parents := []topo.NodeID{-1, 0, 1, 2}
	nw := New(DefaultConfig(), eng, tp, arq, &fixedRouter{parents}, rng.New(8), rec)
	nw.Subscribe(func(j *PacketJourney) {
		for _, h := range j.Hops {
			if h.Observed != h.Attempts {
				t.Errorf("observed %d != attempts %d without ack loss", h.Observed, h.Attempts)
			}
			if h.Observed < 1 || h.Observed > 8 {
				t.Errorf("observed out of range: %d", h.Observed)
			}
		}
	})
	nw.Start()
	eng.Run(300)
}

func TestGenerationRate(t *testing.T) {
	nw, eng, rec := chainNetwork(t, 5, 0, nil)
	nw.Start()
	eng.Run(1000)
	// 4 sources, period ~10s, 1000s => ~400 packets (+/- jitter).
	if rec.Generated < 350 || rec.Generated > 460 {
		t.Fatalf("generated %d packets, want ~400", rec.Generated)
	}
}

func TestEndToEndWithRealRouting(t *testing.T) {
	tp := topo.Grid(4, 10, 1, 14, rng.New(9))
	if !tp.Connected() {
		t.Fatal("grid disconnected")
	}
	eng := sim.New()
	model := radio.NewStatic(tp, radio.DefaultBase(), 10)
	rec := trace.NewRecorder(tp.LinkTable())
	root := rng.New(11)
	arq := mac.New(mac.DefaultConfig(), model, root.Split(), rec)
	proto := routing.New(routing.DefaultConfig(), eng, tp, model, root.Split(), rec)
	nw := New(DefaultConfig(), eng, tp, arq, proto, root.Split(), rec)
	delivered := 0
	nw.Subscribe(func(j *PacketJourney) {
		if j.Delivered {
			delivered++
			last := j.Hops[len(j.Hops)-1]
			if last.Link.To != topo.Sink {
				t.Errorf("delivered journey does not end at sink: %v", last.Link)
			}
		}
	})
	proto.Start()
	eng.Run(60) // routing warmup
	nw.Start()
	eng.Run(600)
	if delivered < 100 {
		t.Fatalf("only %d deliveries in 540s with 15 sources", delivered)
	}
	ratio := rec.Cut().DeliveryRatio()
	if ratio < 0.9 {
		t.Fatalf("delivery ratio %v too low for ARQ collection", ratio)
	}
}

func TestConfigValidation(t *testing.T) {
	tp := topo.Chain(2, 10, 10.5)
	model := radio.NewStaticUniformLoss(tp, 0)
	arq := mac.New(mac.DefaultConfig(), model, rng.New(1), nil)
	for name, cfg := range map[string]Config{
		"zero period": {GenPeriod: 0, TTL: 4},
		"zero ttl":    {GenPeriod: 1, TTL: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			New(cfg, sim.New(), tp, arq, &fixedRouter{[]topo.NodeID{-1, 0}}, rng.New(2), nil)
		}()
	}
}

func TestStartTwicePanics(t *testing.T) {
	nw, _, _ := chainNetwork(t, 2, 0, nil)
	nw.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("second Start did not panic")
		}
	}()
	nw.Start()
}

func TestQueueingSerialisesNode(t *testing.T) {
	// With QueueCap set, a relay can only serve one packet at a time; at a
	// generation rate far above the service rate, its queue must overflow.
	tp := topo.Chain(3, 10, 10.5)
	eng := sim.New()
	model := radio.NewStaticUniformLoss(tp, 0)
	rec := trace.NewRecorder(tp.LinkTable())
	arq := mac.New(mac.DefaultConfig(), model, rng.New(31), rec)
	parents := []topo.NodeID{-1, 0, 1}
	cfg := Config{GenPeriod: 0.05, GenJitter: 0, TxTime: 0.05, HopDelay: 0.01, TTL: 16, QueueCap: 2}
	nw := New(cfg, eng, tp, arq, &fixedRouter{parents}, rng.New(32), rec)
	queueDrops := 0
	nw.Subscribe(func(j *PacketJourney) {
		if j.Drop == DropQueue {
			queueDrops++
		}
	})
	nw.Start()
	eng.Run(50)
	if queueDrops == 0 || nw.QueueDrops == 0 {
		t.Fatalf("overloaded relay never overflowed (drops=%d counter=%d)", queueDrops, nw.QueueDrops)
	}
}

func TestQueueingStillDeliversUnderLightLoad(t *testing.T) {
	tp := topo.Chain(4, 10, 10.5)
	eng := sim.New()
	model := radio.NewStaticUniformLoss(tp, 0)
	rec := trace.NewRecorder(tp.LinkTable())
	arq := mac.New(mac.DefaultConfig(), model, rng.New(33), rec)
	cfg := DefaultConfig()
	cfg.QueueCap = 8
	parents := []topo.NodeID{-1, 0, 1, 2}
	nw := New(cfg, eng, tp, arq, &fixedRouter{parents}, rng.New(34), rec)
	delivered, dropped := 0, 0
	nw.Subscribe(func(j *PacketJourney) {
		if j.Delivered {
			delivered++
		} else {
			dropped++
		}
	})
	nw.Start()
	eng.Run(500)
	if delivered == 0 {
		t.Fatal("no deliveries with queueing enabled")
	}
	if dropped != 0 {
		t.Fatalf("%d drops under light load on lossless links", dropped)
	}
	if nw.QueueDrops != 0 {
		t.Fatalf("queue drops under light load: %d", nw.QueueDrops)
	}
}

func TestQueueDrainOrder(t *testing.T) {
	// Packets queued at a busy relay must come out FIFO and all deliver.
	tp := topo.Chain(3, 10, 10.5)
	eng := sim.New()
	model := radio.NewStaticUniformLoss(tp, 0)
	arq := mac.New(mac.DefaultConfig(), model, rng.New(35), nil)
	cfg := Config{GenPeriod: 1000, GenJitter: 0, TxTime: 0.2, HopDelay: 0.01, TTL: 16, QueueCap: 10}
	parents := []topo.NodeID{-1, 0, 1}
	nw := New(cfg, eng, tp, arq, &fixedRouter{parents}, rng.New(36), nil)
	var order []int64
	nw.Subscribe(func(j *PacketJourney) {
		if j.Delivered && j.Origin == 2 {
			order = append(order, j.Seq)
		}
	})
	// Inject five packets at node 2 back-to-back, bypassing generation.
	for i := int64(1); i <= 5; i++ {
		j := &PacketJourney{Origin: 2, Seq: i, Generated: eng.Now()}
		nw.forward(2, j)
	}
	eng.Run(100)
	if len(order) != 5 {
		t.Fatalf("delivered %d of 5 queued packets", len(order))
	}
	for i := range order {
		if order[i] != int64(i+1) {
			t.Fatalf("non-FIFO drain: %v", order)
		}
	}
}

func TestNegativeQueueCapPanics(t *testing.T) {
	tp := topo.Chain(2, 10, 10.5)
	model := radio.NewStaticUniformLoss(tp, 0)
	arq := mac.New(mac.DefaultConfig(), model, rng.New(1), nil)
	cfg := DefaultConfig()
	cfg.QueueCap = -1
	defer func() {
		if recover() == nil {
			t.Fatal("negative QueueCap accepted")
		}
	}()
	New(cfg, sim.New(), tp, arq, &fixedRouter{[]topo.NodeID{-1, 0}}, rng.New(2), nil)
}

// copyJourney deep-copies a journey, so the copy survives the record being
// recycled.
func copyJourney(j *PacketJourney) PacketJourney {
	c := *j
	c.Hops = append([]Hop(nil), j.Hops...)
	return c
}

// TestRecycledJourneyStreamMatchesFresh runs the same lossy network twice,
// once allocating every journey and once recycling finished journeys in a
// shuffled order after a random delay, and requires a deep-copying
// subscriber to see the same stream.
func TestRecycledJourneyStreamMatchesFresh(t *testing.T) {
	run := func(recycle bool) (stream []PacketJourney, reused int) {
		nw, eng, _ := chainNetwork(t, 6, 0.3, nil)
		r := rng.New(9)
		var held []*PacketJourney
		seen := map[*PacketJourney]bool{}
		nw.Subscribe(func(j *PacketJourney) {
			stream = append(stream, copyJourney(j))
			if seen[j] {
				reused++
			}
			seen[j] = true
		})
		if recycle {
			nw.Subscribe(func(j *PacketJourney) { held = append(held, j) })
			// A recycler outside the subscriber, so every subscriber has
			// returned before a journey goes back.
			var tick func()
			tick = func() {
				r.Shuffle(len(held), func(a, b int) { held[a], held[b] = held[b], held[a] })
				n := r.Intn(len(held) + 1)
				for _, j := range held[:n] {
					nw.Recycle(j)
				}
				held = append(held[:0], held[n:]...)
				eng.After(0.7, tick)
			}
			eng.After(0.7, tick)
		}
		nw.Start()
		eng.Run(400)
		return stream, reused
	}
	fresh, _ := run(false)
	recycled, reused := run(true)
	if len(fresh) < 100 {
		t.Fatalf("only %d journeys; the comparison needs a real stream", len(fresh))
	}
	if reused == 0 {
		t.Fatal("no journey record was reused; recycling never happened")
	}
	if !reflect.DeepEqual(fresh, recycled) {
		for i := range fresh {
			if i >= len(recycled) || !reflect.DeepEqual(fresh[i], recycled[i]) {
				t.Fatalf("journey %d differs with recycling", i)
			}
		}
		t.Fatalf("stream lengths differ: %d fresh, %d recycled", len(fresh), len(recycled))
	}
}

// TestRecycleDropsLongHopBuffers: a record whose Hops grew past
// maxPooledHops is left to the GC rather than pooled, and one within the
// bound is pooled.
func TestRecycleDropsLongHopBuffers(t *testing.T) {
	nw, eng, _ := chainNetwork(t, 3, 0, nil)
	var got []*PacketJourney
	nw.Subscribe(func(j *PacketJourney) { got = append(got, j) })
	nw.Start()
	eng.Run(30)
	if len(got) < 2 {
		t.Fatalf("%d journeys", len(got))
	}
	got[0].Hops = make([]Hop, 0, maxPooledHops+1)
	nw.Recycle(got[0])
	if len(nw.journeyFree) != 0 {
		t.Fatal("a long-hop record was pooled")
	}
	nw.Recycle(got[1])
	if len(nw.journeyFree) != 1 || nw.journeyFree[0] != got[1] {
		t.Fatal("a short-hop record was not pooled")
	}
}

// TestForwardPathAllocFree runs a lossy chain at steady state, recycling
// every finished journey, and requires the forwarding path to allocate
// nothing once the journey and continuation pools and the event queue are
// warm: with unbounded queues, and with bounded ones at relays kept busy
// enough to queue and drop packets.
func TestForwardPathAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"queuecap=0", DefaultConfig()},
		{"queuecap=4", Config{GenPeriod: 0.3, GenJitter: 0.25, TxTime: 0.05, HopDelay: 0.01, TTL: 16, QueueCap: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tp := topo.Chain(6, 10, 10.5)
			eng := sim.New()
			rec := trace.NewRecorder(tp.LinkTable())
			arq := mac.New(mac.DefaultConfig(), radio.NewStaticUniformLoss(tp, 0.2), rng.New(41), rec)
			parents := []topo.NodeID{-1, 0, 1, 2, 3, 4}
			nw := New(tc.cfg, eng, tp, arq, &fixedRouter{parents}, rng.New(42), rec)
			var done []*PacketJourney
			nw.Subscribe(func(j *PacketJourney) { done = append(done, j) })
			step := func() {
				eng.Run(eng.Now() + 10)
				for i, j := range done {
					nw.Recycle(j)
					done[i] = nil
				}
				done = done[:0]
			}
			nw.Start()
			for i := 0; i < 50; i++ {
				step()
			}
			if tc.cfg.QueueCap > 0 && nw.QueueDrops == 0 {
				t.Fatal("no queue drops: the relays were never busy enough to exercise the bounded queue")
			}
			if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
				t.Fatalf("forwarding allocates %.1f objects per 10 s once warm, want 0", allocs)
			}
		})
	}
}
