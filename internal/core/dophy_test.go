package core

import (
	"math"
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

// journey fabricates a delivered packet along the given node path with the
// given observed attempt counts.
func journey(path []topo.NodeID, observed []int) *collect.PacketJourney {
	j := &collect.PacketJourney{Origin: path[0], Delivered: true, Drop: collect.NotDropped}
	for i := 0; i < len(path)-1; i++ {
		j.Hops = append(j.Hops, collect.Hop{
			Link:     topo.Link{From: path[i], To: path[i+1]},
			Attempts: observed[i],
			Observed: observed[i],
		})
	}
	return j
}

func TestRoundTripAnnotation(t *testing.T) {
	tp := topo.Chain(5, 10, 10.5)
	d := New(tp, DefaultConfig())
	j := journey([]topo.NodeID{4, 3, 2, 1, 0}, []int{1, 2, 1, 5})
	d.OnJourney(j)
	rep := d.EndEpoch()
	if rep.DecodeErrors != 0 {
		t.Fatalf("decode errors: %d", rep.DecodeErrors)
	}
	if rep.Overhead.Packets != 1 || rep.Overhead.Hops != 4 {
		t.Fatalf("overhead = %+v", rep.Overhead)
	}
	if rep.Overhead.AnnotationBits <= 0 {
		t.Fatal("no annotation bits accounted")
	}
}

func TestDroppedJourneysIgnored(t *testing.T) {
	tp := topo.Chain(3, 10, 10.5)
	d := New(tp, DefaultConfig())
	j := journey([]topo.NodeID{2, 1, 0}, []int{1, 1})
	j.Delivered = false
	j.Drop = collect.DropRetries
	d.OnJourney(j)
	rep := d.EndEpoch()
	if rep.Overhead.Packets != 0 || len(rep.SortedLinks()) != 0 {
		t.Fatal("dropped journey was processed")
	}
}

func TestEstimatesRecoverUniformLoss(t *testing.T) {
	// Drive a full simulated network with known uniform loss and verify the
	// per-link estimates.
	const loss = 0.2
	tp := topo.Chain(4, 10, 10.5)
	eng := sim.New()
	rm := radio.NewStaticUniformLoss(tp, loss)
	rec := trace.NewRecorder(tp.LinkTable())
	root := rng.New(42)
	arq := mac.New(mac.Config{MaxRetx: 7}, rm, root.Split(), rec)
	proto := routing.New(routing.DefaultConfig(), eng, tp, rm, root.Split(), rec)
	nw := collect.New(collect.Config{GenPeriod: 1, GenJitter: 0.2, TxTime: 0.001, HopDelay: 0.002, TTL: 32},
		eng, tp, arq, proto, root.Split(), rec)

	cfg := DefaultConfig()
	d := New(tp, cfg)
	nw.Subscribe(func(j *collect.PacketJourney) { d.OnJourney(j) })
	proto.Start()
	eng.Run(60)
	nw.Start()
	eng.Run(2000)
	rep := d.EndEpoch()
	if rep.DecodeErrors != 0 {
		t.Fatalf("decode errors: %d", rep.DecodeErrors)
	}
	estimated := rep.SortedLinks()
	if len(estimated) < 3 {
		t.Fatalf("only %d links estimated", len(estimated))
	}
	for _, l := range estimated {
		est, _ := rep.At(l)
		if math.Abs(est.Loss-loss) > 0.05 {
			t.Errorf("link %v loss = %.3f (n=%d), want ~%.2f", l, est.Loss, est.Samples, loss)
		}
	}
}

func TestAggregationReducesAlphabet(t *testing.T) {
	tp := topo.Chain(3, 10, 10.5)
	cfg := DefaultConfig()
	cfg.AggThreshold = 2
	d := New(tp, cfg)
	if d.CountSymbols() != 3 {
		t.Fatalf("symbols = %d, want 3", d.CountSymbols())
	}
	cfg.AggThreshold = 0
	d2 := New(tp, cfg)
	if d2.CountSymbols() != cfg.MaxAttempts {
		t.Fatalf("unaggregated symbols = %d", d2.CountSymbols())
	}
}

func TestAggregatedTailCensored(t *testing.T) {
	tp := topo.Chain(3, 10, 10.5)
	cfg := DefaultConfig()
	cfg.AggThreshold = 2
	cfg.MinSamples = 1
	d := New(tp, cfg)
	// Observed attempts 8 => count 7 => tail symbol (censored).
	for i := 0; i < 30; i++ {
		d.OnJourney(journey([]topo.NodeID{1, 0}, []int{8}))
		d.OnJourney(journey([]topo.NodeID{1, 0}, []int{1}))
	}
	rep := d.EndEpoch()
	if rep.DecodeErrors != 0 {
		t.Fatalf("decode errors: %d", rep.DecodeErrors)
	}
	est, ok := rep.At(topo.Link{From: 1, To: 0})
	if !ok {
		t.Fatal("link not estimated")
	}
	// Half the packets needed >= 2 retransmissions: loss must be large.
	if est.Loss < 0.3 {
		t.Fatalf("censored-heavy link loss = %v, want substantial", est.Loss)
	}
}

func TestModelUpdateReducesBits(t *testing.T) {
	// Feed a count distribution very different from the prior; after the
	// model update the same traffic must cost fewer bits per packet.
	tp := topo.Chain(3, 10, 10.5)
	cfg := DefaultConfig()
	cfg.AggThreshold = 0
	cfg.UpdateEvery = 1
	d := New(tp, cfg)
	feed := func() float64 {
		for i := 0; i < 500; i++ {
			// Attempts concentrated at 4: the prior considers this rare.
			d.OnJourney(journey([]topo.NodeID{2, 1, 0}, []int{4, 4}))
		}
		return float64(d.overhead.AnnotationBits) / float64(d.overhead.Packets)
	}
	before := feed()
	rep := d.EndEpoch()
	if !rep.ModelUpdated {
		t.Fatal("model not updated at epoch end")
	}
	if rep.Overhead.DisseminationBits == 0 {
		t.Fatal("dissemination cost not accounted")
	}
	after := feed()
	d.EndEpoch()
	if after >= before*0.7 {
		t.Fatalf("model update did not shrink annotation: %.2f -> %.2f bits/pkt", before, after)
	}
}

func TestNoUpdateWhenDisabled(t *testing.T) {
	tp := topo.Chain(3, 10, 10.5)
	cfg := DefaultConfig()
	cfg.UpdateEvery = 0
	d := New(tp, cfg)
	d.OnJourney(journey([]topo.NodeID{1, 0}, []int{1}))
	rep := d.EndEpoch()
	if rep.ModelUpdated || rep.Overhead.DisseminationBits != 0 {
		t.Fatal("model updated despite UpdateEvery=0")
	}
}

func TestEpochResets(t *testing.T) {
	tp := topo.Chain(3, 10, 10.5)
	cfg := DefaultConfig()
	cfg.MinSamples = 1
	d := New(tp, cfg)
	d.OnJourney(journey([]topo.NodeID{1, 0}, []int{1}))
	rep1 := d.EndEpoch()
	if rep1.Overhead.Packets != 1 {
		t.Fatalf("epoch 1 packets = %d", rep1.Overhead.Packets)
	}
	rep2 := d.EndEpoch()
	if rep2.Overhead.Packets != 0 || len(rep2.SortedLinks()) != 0 {
		t.Fatal("epoch accumulators not reset")
	}
	if rep2.Epoch != 2 {
		t.Fatalf("epoch counter = %d", rep2.Epoch)
	}
}

func TestMinSamplesFilters(t *testing.T) {
	tp := topo.Chain(3, 10, 10.5)
	cfg := DefaultConfig()
	cfg.MinSamples = 100
	d := New(tp, cfg)
	for i := 0; i < 99; i++ {
		d.OnJourney(journey([]topo.NodeID{1, 0}, []int{1}))
	}
	if rep := d.EndEpoch(); len(rep.SortedLinks()) != 0 {
		t.Fatal("under-sampled link reported")
	}
	for i := 0; i < 100; i++ {
		d.OnJourney(journey([]topo.NodeID{1, 0}, []int{1}))
	}
	if rep := d.EndEpoch(); len(rep.SortedLinks()) != 1 {
		t.Fatal("sufficiently-sampled link not reported")
	}
}

func TestOverheadScalesWithPathLength(t *testing.T) {
	tp := topo.Chain(9, 10, 10.5)
	cfg := DefaultConfig()
	d := New(tp, cfg)
	short := journey([]topo.NodeID{1, 0}, []int{1})
	d.OnJourney(short)
	shortBits := d.overhead.AnnotationBits
	d.EndEpoch()
	long := journey([]topo.NodeID{8, 7, 6, 5, 4, 3, 2, 1, 0}, []int{1, 1, 1, 1, 1, 1, 1, 1})
	d.OnJourney(long)
	longBits := d.overhead.AnnotationBits
	if longBits <= shortBits {
		t.Fatalf("8-hop annotation (%d bits) not larger than 1-hop (%d)", longBits, shortBits)
	}
	// But the per-hop cost must be small: chain nodes have degree <= 2 and
	// counts are overwhelmingly zero, so well under a byte per hop.
	perHop := float64(longBits) / 8
	if perHop > 8 {
		t.Fatalf("per-hop annotation = %.1f bits, want < 8", perHop)
	}
}

// TestOverheadBook pins the booking rule on one three-hop packet: hop i
// radiates the header, the annotation through hop i-1 and, from the second
// hop on, the carried coder state, once per attempt.
func TestOverheadBook(t *testing.T) {
	j := journey([]topo.NodeID{3, 2, 1, 0}, []int{1, 2, 3})
	var o Overhead
	o.Book(j.Hops, 6, 14, []int{3, 7, 12}, 2)
	want := Overhead{
		Packets:           1,
		Hops:              3,
		AnnotationBits:    14,
		HeaderBits:        6,
		TransmittedBits:   6*1 + (6+3+2)*2 + (6+7+2)*3,
		InFlightStateBits: 2*2 + 2*3,
	}
	if o != want {
		t.Fatalf("booked %+v, want %+v", o, want)
	}
}

func TestTransmittedBitsAccounting(t *testing.T) {
	tp := topo.Chain(4, 10, 10.5)
	d := New(tp, DefaultConfig())
	j := journey([]topo.NodeID{3, 2, 1, 0}, []int{2, 1, 3})
	d.OnJourney(j)
	o := d.overhead
	// Header radiates on every attempt: (2+1+3) * originBits at minimum.
	minHeader := int64(6 * d.OriginBits())
	if o.TransmittedBits < minHeader {
		t.Fatalf("transmitted bits %d below header floor %d", o.TransmittedBits, minHeader)
	}
	if o.TransmittedBits <= o.AnnotationBits {
		// With retransmissions the radiated total must exceed the final size.
		t.Fatalf("transmitted %d <= final %d", o.TransmittedBits, o.AnnotationBits)
	}
}

func TestSortedLinksDeterministic(t *testing.T) {
	tp := topo.Chain(5, 10, 10.5)
	cfg := DefaultConfig()
	cfg.MinSamples = 1
	d := New(tp, cfg)
	for i := 0; i < 20; i++ {
		d.OnJourney(journey([]topo.NodeID{4, 3, 2, 1, 0}, []int{1, 1, 1, 1}))
	}
	rep := d.EndEpoch()
	links := rep.SortedLinks()
	if len(links) != 4 {
		t.Fatalf("links = %v", links)
	}
	for i := 1; i < len(links); i++ {
		if links[i].From <= links[i-1].From {
			t.Fatalf("unsorted: %v", links)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	tp := topo.Chain(2, 10, 10.5)
	for name, cfg := range map[string]Config{
		"zero attempts": {MaxAttempts: 0},
		"agg too big":   {MaxAttempts: 4, AggThreshold: 4},
		"agg negative":  {MaxAttempts: 4, AggThreshold: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			New(tp, cfg)
		}()
	}
}

func TestOriginBits(t *testing.T) {
	if d := New(topo.Chain(2, 10, 10.5), DefaultConfig()); d.OriginBits() != 1 {
		t.Fatalf("2-node origin bits = %d", d.OriginBits())
	}
	if d := New(topo.Chain(100, 10, 10.5), DefaultConfig()); d.OriginBits() != 7 {
		t.Fatalf("100-node origin bits = %d", d.OriginBits())
	}
}

func BenchmarkOnJourney(b *testing.B) {
	tp := topo.Chain(10, 10, 10.5)
	d := New(tp, DefaultConfig())
	j := journey([]topo.NodeID{9, 8, 7, 6, 5, 4, 3, 2, 1, 0},
		[]int{1, 1, 2, 1, 1, 3, 1, 1, 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.OnJourney(j)
	}
}

func TestHopModelUpdateShrinksPathBits(t *testing.T) {
	// A node that always forwards to the same parent should pay far less
	// than log2(degree) for its hop records once hop models update.
	tp := topo.Grid(3, 10, 0, 15, rng.New(21))
	cfg := DefaultConfig()
	cfg.HopModelUpdateEvery = 1
	d := New(tp, cfg)
	// Node 8 (corner) has neighbours {4,5,7}; always route via 5 then 2->...
	// Use a fixed 2-hop path 8 -> 5 -> 0? 5's neighbours include 0? Node 5
	// is at (2,1) in a 3x3 grid with diagonals, so 0 is not adjacent (dist
	// ~22). Use 8 -> 4 -> 0 (diagonals adjacent).
	path := []topo.NodeID{8, 4, 0}
	feed := func() float64 {
		for i := 0; i < 400; i++ {
			d.OnJourney(journey(path, []int{1, 1}))
		}
		return float64(d.overhead.AnnotationBits) / float64(d.overhead.Packets)
	}
	before := feed()
	rep := d.EndEpoch()
	if rep.Overhead.DisseminationBits == 0 {
		t.Fatal("hop-model dissemination not accounted")
	}
	after := feed()
	d.EndEpoch()
	if after >= before*0.7 {
		t.Fatalf("hop model update did not shrink annotation: %.2f -> %.2f bits/pkt", before, after)
	}
	if rep.DecodeErrors != 0 {
		t.Fatal("decode errors with hop models")
	}
}

func TestHopModelDisabledByDefault(t *testing.T) {
	tp := topo.Chain(3, 10, 10.5)
	d := New(tp, DefaultConfig())
	d.OnJourney(journey([]topo.NodeID{2, 1, 0}, []int{1, 1}))
	rep := d.EndEpoch()
	// Dissemination only from the count-model flood, none from hop tables:
	// with UpdateEvery=1 the count model updates; compare against a config
	// with hop updates enabled to see the difference.
	cfgOn := DefaultConfig()
	cfgOn.HopModelUpdateEvery = 1
	dOn := New(tp, cfgOn)
	dOn.OnJourney(journey([]topo.NodeID{2, 1, 0}, []int{1, 1}))
	repOn := dOn.EndEpoch()
	if repOn.Overhead.DisseminationBits <= rep.Overhead.DisseminationBits {
		t.Fatalf("hop tables added no dissemination: %d vs %d",
			repOn.Overhead.DisseminationBits, rep.Overhead.DisseminationBits)
	}
}

func TestHopModelConfigValidation(t *testing.T) {
	tp := topo.Chain(2, 10, 10.5)
	cfg := DefaultConfig()
	cfg.HopModelUpdateEvery = -1
	defer func() {
		if recover() == nil {
			t.Fatal("negative HopModelUpdateEvery accepted")
		}
	}()
	New(tp, cfg)
}

func TestDecodeRobustOnGarbage(t *testing.T) {
	// The sink decoder must never panic on arbitrary annotation bytes: it
	// either terminates at the sink, errors, or is caught by the hop bound.
	tp := topo.Grid(4, 10, 1, 14, rng.New(61))
	d := New(tp, DefaultConfig())
	r := rng.New(62)
	for trial := 0; trial < 3000; trial++ {
		n := r.Intn(24)
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(r.Intn(256))
		}
		origin := topo.NodeID(r.Intn(tp.N()-1) + 1)
		nHops := r.Intn(12) + 1
		links, counts, err := d.decode(origin, data, nHops, d.countModel, d.hopModels)
		if err != nil {
			continue
		}
		// A successful decode must be structurally valid.
		cur := origin
		for i, l := range links {
			if l.From != cur || !tp.Adjacent(l.From, l.To) {
				t.Fatalf("decode produced invalid hop %v from %d", l, cur)
			}
			if counts[i] < 0 || counts[i] >= d.CountSymbols() {
				t.Fatalf("decode produced invalid symbol %d", counts[i])
			}
			cur = l.To
		}
		if len(links) > 0 && cur != topo.Sink {
			t.Fatal("decode terminated away from the sink")
		}
	}
}

// FuzzDecodeArbitrary feeds the sink-side decoder arbitrary annotation
// bytes, an origin and a hop count in [0, 64]. It must never panic, and a
// successful decode must be a walk through the neighbour tables from the
// origin to the sink of exactly that many hops.
func FuzzDecodeArbitrary(f *testing.F) {
	tp := topo.Grid(4, 10, 1, 14, rng.New(61))
	d := New(tp, DefaultConfig())
	data, _, _ := d.encode(journey([]topo.NodeID{5, 4, 0}, []int{1, 3}))
	f.Add(append([]byte(nil), data...), uint16(5), uint8(2))
	f.Add([]byte{}, uint16(1), uint8(0))
	f.Add([]byte{0xff, 0x00, 0x5a}, uint16(15), uint8(64))
	f.Fuzz(func(t *testing.T, data []byte, o uint16, n uint8) {
		origin := topo.NodeID(int(o) % tp.N())
		nHops := int(n) % 65
		links, counts, err := d.decode(origin, data, nHops, d.countModel, d.hopModels)
		if err != nil {
			return
		}
		if len(links) != nHops || len(counts) != len(links) {
			t.Fatalf("decoded %d links and %d counts for %d hops", len(links), len(counts), nHops)
		}
		cur := origin
		for i, l := range links {
			if l.From != cur || !tp.Adjacent(l.From, l.To) {
				t.Fatalf("hop %d: %v does not continue a walk from %d", i, l, cur)
			}
			if counts[i] < 0 || counts[i] >= d.CountSymbols() {
				t.Fatalf("hop %d: count symbol %d out of range", i, counts[i])
			}
			cur = l.To
		}
		if cur != topo.Sink {
			t.Fatalf("walk from %d ends at %d, not the sink", origin, cur)
		}
	})
}

// TestThroughSinkIsDecodeError: a journey that reaches the sink and
// leaves it again (1 -> 0 -> 1 -> 0) decodes only up to its first arrival,
// and a decode shorter than the packet's hop count is a decode error, not
// one accumulated hop.
func TestThroughSinkIsDecodeError(t *testing.T) {
	tp := topo.Chain(3, 10, 10.5)
	d := New(tp, DefaultConfig())
	d.OnJourney(journey([]topo.NodeID{1, 0, 1, 0}, []int{1, 1, 1}))
	if d.decodeErrors != 1 || d.linkObs.At(d.lt.Index(topo.Link{From: 1, To: 0})).Total() != 0 {
		t.Fatalf("decode errors %d, link 1->0 holds %v observations; want 1 and 0",
			d.decodeErrors, d.linkObs.At(d.lt.Index(topo.Link{From: 1, To: 0})).Total())
	}
	if rep := d.EndEpoch(); rep.DecodeErrors != 1 {
		t.Fatalf("report shows %d decode errors, want 1", rep.DecodeErrors)
	}
}

func TestObsDecayCarriesEvidence(t *testing.T) {
	tp := topo.Chain(3, 10, 10.5)
	cfg := DefaultConfig()
	cfg.ObsDecay = 0.5
	cfg.MinSamples = 5
	d := New(tp, cfg)
	for i := 0; i < 40; i++ {
		d.OnJourney(journey([]topo.NodeID{1, 0}, []int{2}))
	}
	rep1 := d.EndEpoch()
	if len(rep1.SortedLinks()) != 1 {
		t.Fatal("link not estimated in epoch 1")
	}
	// Epoch 2 has NO new traffic: the windowed estimator would report
	// nothing; the decayed estimator still has 20 effective samples.
	rep2 := d.EndEpoch()
	est, ok := rep2.At(topo.Link{From: 1, To: 0})
	if !ok {
		t.Fatal("decayed estimator forgot everything after one idle epoch")
	}
	if est.Samples < 15 || est.Samples > 25 {
		t.Fatalf("effective samples = %d, want ~20", est.Samples)
	}
	// Eventually the evidence decays below the floor and disappears.
	for i := 0; i < 8; i++ {
		d.EndEpoch()
	}
	repN := d.EndEpoch()
	if len(repN.SortedLinks()) != 0 {
		t.Fatal("stale evidence never evaporated")
	}
}

func TestObsDecayValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ObsDecay = 1.5
	defer func() {
		if recover() == nil {
			t.Fatal("ObsDecay 1.5 accepted")
		}
	}()
	New(topo.Chain(2, 10, 10.5), cfg)
}
