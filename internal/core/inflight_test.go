package core

import (
	"testing"

	"dophy/internal/collect"
	"dophy/internal/mac"
	"dophy/internal/radio"
	"dophy/internal/rng"
	"dophy/internal/routing"
	"dophy/internal/sim"
	"dophy/internal/topo"
	"dophy/internal/trace"
)

// buildNetwork assembles a small live network for distributed-path tests.
func buildNetwork(t *testing.T, seed uint64) (*sim.Engine, *collect.Network, *topo.Topology) {
	t.Helper()
	tp := topo.Grid(4, 10, 1, 14, rng.New(seed))
	if !tp.Connected() {
		t.Fatal("test grid disconnected")
	}
	eng := sim.New()
	model := radio.NewStatic(tp, radio.DefaultBase(), seed)
	rec := trace.NewRecorder(tp.LinkTable())
	root := rng.New(seed + 1)
	arq := mac.New(mac.Config{MaxRetx: 7}, model, root.Split(), rec)
	proto := routing.New(routing.DefaultConfig(), eng, tp, model, root.Split(), rec)
	// Zero per-hop latency: journeys complete atomically, so no packet is
	// ever in flight across an epoch boundary and the central/distributed
	// comparison is exact (straddling packets legitimately differ when a
	// model update lands mid-flight).
	nw := collect.New(collect.Config{GenPeriod: 2, GenJitter: 0.2, TxTime: 0, HopDelay: 0, TTL: 64},
		eng, tp, arq, proto, root.Split(), rec)
	proto.Start()
	eng.Run(60)
	return eng, nw, tp
}

func TestDistributedMatchesCentral(t *testing.T) {
	// The same packets flow through (a) the sink-side convenience path and
	// (b) the hop-by-hop distributed path; every estimate and every
	// annotation bit must agree.
	eng, nw, tp := buildNetwork(t, 51)
	cfg := DefaultConfig()
	cfg.UpdateEvery = 1
	cfg.HopModelUpdateEvery = 2
	central := New(tp, cfg)
	distributed := New(tp, cfg)
	nw.Subscribe(func(j *collect.PacketJourney) { central.OnJourney(j) })
	nw.AttachAnnotator(distributed.NewAnnotator())
	nw.Start()
	for epoch := 1; epoch <= 3; epoch++ {
		eng.Run(60 + sim.Time(epoch)*300)
		cRep := central.EndEpoch()
		dRep := distributed.EndEpoch()
		if cRep.DecodeErrors != 0 || dRep.DecodeErrors != 0 {
			t.Fatalf("epoch %d decode errors: central=%d distributed=%d",
				epoch, cRep.DecodeErrors, dRep.DecodeErrors)
		}
		// In-flight packets at the epoch boundary make the two views differ
		// by at most the handful of packets completed after OnJourney's
		// epoch cut; with synchronous delivery both see identical sets.
		if cRep.Overhead.Packets != dRep.Overhead.Packets {
			t.Fatalf("epoch %d packet counts differ: %d vs %d",
				epoch, cRep.Overhead.Packets, dRep.Overhead.Packets)
		}
		if cRep.Overhead.AnnotationBits != dRep.Overhead.AnnotationBits {
			t.Fatalf("epoch %d annotation bits differ: %d vs %d",
				epoch, cRep.Overhead.AnnotationBits, dRep.Overhead.AnnotationBits)
		}
		cLinks, dLinks := cRep.SortedLinks(), dRep.SortedLinks()
		if len(cLinks) != len(dLinks) {
			t.Fatalf("epoch %d link sets differ: %d vs %d", epoch, len(cLinks), len(dLinks))
		}
		for _, l := range cLinks {
			ce, _ := cRep.At(l)
			de, ok := dRep.At(l)
			if !ok || ce.Loss != de.Loss || ce.Samples != de.Samples {
				t.Fatalf("epoch %d link %v estimates differ: %+v vs %+v", epoch, l, ce, de)
			}
		}
		if dRep.Overhead.InFlightStateBits == 0 && dRep.Overhead.Packets > 0 {
			t.Fatal("distributed path accounted no in-flight state")
		}
		if cRep.Overhead.InFlightStateBits != 0 {
			t.Fatal("central path accounted in-flight state")
		}
	}
}

func TestAnnotatorDropReclaimsState(t *testing.T) {
	tp := topo.Chain(3, 10, 10.5)
	d := New(tp, DefaultConfig())
	a := d.NewAnnotator()
	j := &collect.PacketJourney{Origin: 2, Seq: 1}
	a.OnGenerate(j)
	a.OnHop(j, collect.Hop{Link: topo.Link{From: 2, To: 1}, Attempts: 1, Observed: 1})
	if a.InFlight() != 1 {
		t.Fatalf("in-flight = %d", a.InFlight())
	}
	j.Drop = collect.DropRetries
	a.OnDrop(j)
	if a.InFlight() != 0 {
		t.Fatal("dropped packet state not reclaimed")
	}
	if d.overhead.Packets != 0 {
		t.Fatal("dropped packet accounted")
	}
}

func TestAnnotatorIgnoresForeignPackets(t *testing.T) {
	// Packets generated before the annotator attached have no state; hops
	// and delivery must be safely ignored.
	tp := topo.Chain(3, 10, 10.5)
	d := New(tp, DefaultConfig())
	a := d.NewAnnotator()
	j := &collect.PacketJourney{Origin: 2, Seq: 1, Delivered: true,
		Hops: []collect.Hop{{Link: topo.Link{From: 2, To: 1}, Attempts: 1, Observed: 1}}}
	a.OnHop(j, j.Hops[0])
	a.OnDeliver(j)
	if d.overhead.Packets != 0 {
		t.Fatal("foreign packet accounted")
	}
}

func TestAnnotatorSurvivesModelUpdateMidFlight(t *testing.T) {
	// A packet that started before a model update must decode correctly
	// against its captured model version.
	tp := topo.Chain(4, 10, 10.5)
	cfg := DefaultConfig()
	cfg.UpdateEvery = 1
	cfg.MinSamples = 1
	d := New(tp, cfg)
	a := d.NewAnnotator()

	// Start a journey, encode its first hop under model v0.
	inFlight := &collect.PacketJourney{Origin: 3, Seq: 999}
	a.OnGenerate(inFlight)
	a.OnHop(inFlight, collect.Hop{Link: topo.Link{From: 3, To: 2}, Attempts: 4, Observed: 4})

	// Meanwhile, plenty of traffic with a different count distribution
	// triggers a model update at the epoch boundary.
	for i := 0; i < 200; i++ {
		j := &collect.PacketJourney{Origin: 1, Seq: int64(i), Delivered: true,
			Hops: []collect.Hop{{Link: topo.Link{From: 1, To: 0}, Attempts: 1, Observed: 1}}}
		a.OnGenerate(j)
		a.OnHop(j, j.Hops[0])
		a.OnDeliver(j)
	}
	rep := d.EndEpoch()
	if !rep.ModelUpdated {
		t.Fatal("model did not update")
	}
	// Finish the old packet under the new regime.
	a.OnHop(inFlight, collect.Hop{Link: topo.Link{From: 2, To: 1}, Attempts: 2, Observed: 2})
	a.OnHop(inFlight, collect.Hop{Link: topo.Link{From: 1, To: 0}, Attempts: 1, Observed: 1})
	inFlight.Delivered = true
	inFlight.Hops = []collect.Hop{
		{Link: topo.Link{From: 3, To: 2}, Attempts: 4, Observed: 4},
		{Link: topo.Link{From: 2, To: 1}, Attempts: 2, Observed: 2},
		{Link: topo.Link{From: 1, To: 0}, Attempts: 1, Observed: 1},
	}
	a.OnDeliver(inFlight)
	rep2 := d.EndEpoch()
	if rep2.DecodeErrors != 0 {
		t.Fatalf("mid-flight model update corrupted decoding: %d errors", rep2.DecodeErrors)
	}
	if rep2.Overhead.Packets != 1 {
		t.Fatalf("old packet not accounted: %+v", rep2.Overhead)
	}
}
