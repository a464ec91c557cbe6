package routing

import (
	"math"
	"testing"

	"dophy/internal/mac"
	"dophy/internal/radio"
	"dophy/internal/rng"
	"dophy/internal/sim"
	"dophy/internal/topo"
	"dophy/internal/trace"
)

// chainTopo builds a 1-D chain 0-1-2-...-(n-1) with spacing 10 and range
// 10.5, so each node can only talk to immediate neighbours.
func chainTopo(n int) *topo.Topology {
	return topo.Chain(n, 10, 10.5)
}

func bootstrapped(t *testing.T, n int, loss float64, seed uint64) (*Protocol, *sim.Engine, *topo.Topology) {
	t.Helper()
	return bootstrap(t, chainTopo(n), loss, seed)
}

// bootstrap runs routing on tp under uniform loss until it has converged.
func bootstrap(tb testing.TB, tp *topo.Topology, loss float64, seed uint64) (*Protocol, *sim.Engine, *topo.Topology) {
	tb.Helper()
	eng := sim.New()
	model := radio.NewStaticUniformLoss(tp, loss)
	rec := trace.NewRecorder(tp.LinkTable())
	p := New(DefaultConfig(), eng, tp, model, rng.New(seed), rec)
	p.Start()
	eng.Run(300)
	return p, eng, tp
}

func TestBootstrapChain(t *testing.T) {
	p, _, tp := bootstrapped(t, 5, 0, 1)
	if got := p.Routed(); got != tp.N()-1 {
		t.Fatalf("routed %d of %d nodes", got, tp.N()-1)
	}
	// On a lossless chain, parents must follow the gradient i -> i-1.
	for i := topo.NodeID(1); i < topo.NodeID(tp.N()); i++ {
		pa, ok := p.Parent(i)
		if !ok || pa != i-1 {
			t.Fatalf("node %d parent = %d (ok=%v), want %d", i, pa, ok, i-1)
		}
	}
}

func TestSinkHasNoParentAndZeroETX(t *testing.T) {
	p, _, _ := bootstrapped(t, 4, 0, 2)
	if _, ok := p.Parent(topo.Sink); ok {
		t.Fatal("sink acquired a parent")
	}
	if p.PathETX(topo.Sink) != 0 {
		t.Fatalf("sink path ETX = %v", p.PathETX(topo.Sink))
	}
}

func TestPathETXMonotoneTowardSink(t *testing.T) {
	p, _, tp := bootstrapped(t, 6, 0.1, 3)
	for i := topo.NodeID(1); i < topo.NodeID(tp.N()); i++ {
		pa, ok := p.Parent(i)
		if !ok {
			t.Fatalf("node %d unrouted", i)
		}
		if p.PathETX(i) <= p.PathETX(pa) {
			t.Fatalf("metric not decreasing: node %d etx %v, parent %d etx %v",
				i, p.PathETX(i), pa, p.PathETX(pa))
		}
	}
}

func TestDataFeedbackImprovesEstimates(t *testing.T) {
	p, _, _ := bootstrapped(t, 3, 0, 4)
	ns := p.nodes[1]
	before := ns.neighbors[p.lt.NeighborIndex(topo.Link{From: 1, To: 0})].linkETX
	// Report consistently expensive exchanges toward node 0.
	for i := 0; i < 50; i++ {
		p.OnDataResult(1, 0, mac.Result{Attempts: 8, Delivered: true, FirstDelivered: 8, AckedAttempt: 8})
	}
	after := ns.neighbors[p.lt.NeighborIndex(topo.Link{From: 1, To: 0})].linkETX
	if after <= before+1 {
		t.Fatalf("link ETX did not respond to data feedback: %v -> %v", before, after)
	}
}

func TestFailedDataGivesPenalty(t *testing.T) {
	p, _, _ := bootstrapped(t, 3, 0, 5)
	ns := p.nodes[2]
	for i := 0; i < 100; i++ {
		p.OnDataResult(2, 1, mac.Result{Attempts: 8, Delivered: false})
	}
	got := ns.neighbors[p.lt.NeighborIndex(topo.Link{From: 2, To: 1})].linkETX
	if got < maxETXSample-1 {
		t.Fatalf("penalty sample not applied: link ETX = %v", got)
	}
}

func TestParentSwitchOnDegradedLink(t *testing.T) {
	// Grid with diagonal links: node can switch between two parents.
	tp := topo.Grid(3, 10, 0, 15, rng.New(6))
	eng := sim.New()
	model := radio.NewStaticUniformLoss(tp, 0)
	rec := trace.NewRecorder(tp.LinkTable())
	p := New(DefaultConfig(), eng, tp, model, rng.New(7), rec)
	p.Start()
	eng.Run(200)
	node := topo.NodeID(4) // center; neighbours include 0,1,3,...
	pa, ok := p.Parent(node)
	if !ok {
		t.Fatal("center unrouted")
	}
	// Degrade the current parent link heavily and keep reporting failures.
	for i := 0; i < 200; i++ {
		p.OnDataResult(node, pa, mac.Result{Attempts: 8, Delivered: false})
	}
	eng.Run(400)
	pa2, _ := p.Parent(node)
	if pa2 == pa {
		t.Fatalf("node %d never abandoned degraded parent %d", node, pa)
	}
	if rec.ParentChanges == 0 {
		t.Fatal("parent change not counted")
	}
}

func TestRandomizeParentForcesChurn(t *testing.T) {
	tp := topo.Grid(4, 10, 0, 15, rng.New(8))
	model := radio.NewStaticUniformLoss(tp, 0.05)

	run := func(prob float64) int64 {
		eng := sim.New()
		rec := trace.NewRecorder(tp.LinkTable())
		cfg := DefaultConfig()
		cfg.RandomizeParentProb = prob
		p := New(cfg, eng, tp, model, rng.New(9), rec)
		p.Start()
		eng.Run(150)
		rec.Cut()
		eng.Run(1000)
		return rec.Cut().ParentChanges
	}
	base := run(0)
	churned := run(0.5)
	if churned <= base+10 {
		t.Fatalf("randomize knob ineffective: base=%d churned=%d", base, churned)
	}
}

func TestBeaconsRecordedInTrace(t *testing.T) {
	tp := chainTopo(3)
	eng := sim.New()
	model := radio.NewStaticUniformLoss(tp, 0)
	rec := trace.NewRecorder(tp.LinkTable())
	p := New(DefaultConfig(), eng, tp, model, rng.New(10), rec)
	p.Start()
	eng.Run(100)
	if p.BeaconsSent == 0 {
		t.Fatal("no beacons sent")
	}
	c := rec.Link(topo.Link{From: 0, To: 1})
	if c.Attempts == 0 || c.Successes != c.Attempts {
		t.Fatalf("lossless beacon link counts = %+v", c)
	}
}

// TestCurrentTreeShape: after bootstrap the sink has no parent and every
// other node is routed.
func TestCurrentTreeShape(t *testing.T) {
	p, _, tp := bootstrapped(t, 4, 0, 11)
	if pa, ok := p.Parent(topo.Sink); ok || pa != NoParent {
		t.Fatalf("sink parent = %d", pa)
	}
	for i := 1; i < tp.N(); i++ {
		if _, ok := p.Parent(topo.NodeID(i)); !ok {
			t.Fatalf("node %d unrouted after bootstrap", i)
		}
	}
}

func TestStartTwicePanics(t *testing.T) {
	tp := chainTopo(2)
	model := radio.NewStaticUniformLoss(tp, 0)
	p := New(DefaultConfig(), sim.New(), tp, model, rng.New(1), nil)
	p.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("second Start did not panic")
		}
	}()
	p.Start()
}

func TestUnroutedBeforeStart(t *testing.T) {
	tp := chainTopo(3)
	model := radio.NewStaticUniformLoss(tp, 0)
	p := New(DefaultConfig(), sim.New(), tp, model, rng.New(1), nil)
	if p.Routed() != 0 {
		t.Fatal("nodes routed before any beacons")
	}
	if !math.IsInf(p.PathETX(2), 1) {
		t.Fatalf("pre-bootstrap path ETX = %v", p.PathETX(2))
	}
}

func TestAdaptiveBeaconReducesOverhead(t *testing.T) {
	tp := topo.Grid(4, 10, 0, 15, rng.New(41))
	model := radio.NewStaticUniformLoss(tp, 0.05)
	run := func(adaptive bool) int64 {
		eng := sim.New()
		cfg := DefaultConfig()
		if adaptive {
			cfg.AdaptiveBeacon = true
			cfg.BeaconMin = beaconPeriod
			cfg.BeaconMax = beaconPeriod * 16
			cfg.TrickleReset = 1
		}
		p := New(cfg, eng, tp, model, rng.New(42), trace.NewRecorder(tp.LinkTable()))
		p.Start()
		eng.Run(2000)
		return p.BeaconsSent
	}
	fixed := run(false)
	adaptive := run(true)
	if adaptive >= fixed/2 {
		t.Fatalf("trickle did not reduce beacons: fixed=%d adaptive=%d", fixed, adaptive)
	}
}

func TestAdaptiveBeaconStillBootstraps(t *testing.T) {
	tp := chainTopo(6)
	eng := sim.New()
	model := radio.NewStaticUniformLoss(tp, 0)
	cfg := DefaultConfig()
	cfg.AdaptiveBeacon = true
	cfg.BeaconMin = 2
	cfg.BeaconMax = 64
	cfg.TrickleReset = 0.5
	p := New(cfg, eng, tp, model, rng.New(43), trace.NewRecorder(tp.LinkTable()))
	p.Start()
	eng.Run(300)
	if got := p.Routed(); got != tp.N()-1 {
		t.Fatalf("routed %d of %d under adaptive beaconing", got, tp.N()-1)
	}
}

func TestAdaptiveBeaconResetOnChange(t *testing.T) {
	// After a long stable period, degrading the current parent should snap
	// the node back to fast beaconing (observable as a beacon-rate burst).
	tp := topo.Grid(3, 10, 0, 15, rng.New(44))
	eng := sim.New()
	model := radio.NewStaticUniformLoss(tp, 0)
	cfg := DefaultConfig()
	cfg.AdaptiveBeacon = true
	cfg.BeaconMin = 2
	cfg.BeaconMax = 128
	cfg.TrickleReset = 0.5
	rec := trace.NewRecorder(tp.LinkTable())
	p := New(cfg, eng, tp, model, rng.New(45), rec)
	p.Start()
	eng.Run(1500) // intervals saturate at BeaconMax
	before := p.BeaconsSent
	eng.Run(1756) // 256s at max interval: ~2 beacons/node expected
	quiet := p.BeaconsSent - before
	// Force a parent change at node 4.
	pa, _ := p.Parent(4)
	for i := 0; i < 300; i++ {
		p.OnDataResult(4, pa, mac.Result{Attempts: 8, Delivered: false})
	}
	before = p.BeaconsSent
	eng.Run(2012) // same window length after the reset
	busy := p.BeaconsSent - before
	if busy <= quiet {
		t.Fatalf("no beacon burst after parent change: quiet=%d busy=%d", quiet, busy)
	}
}

func TestAdaptiveBeaconValidation(t *testing.T) {
	tp := chainTopo(2)
	model := radio.NewStaticUniformLoss(tp, 0)
	cfg := DefaultConfig()
	cfg.AdaptiveBeacon = true
	cfg.BeaconMin = 0
	defer func() {
		if recover() == nil {
			t.Fatal("BeaconMin 0 accepted")
		}
	}()
	New(cfg, sim.New(), tp, model, rng.New(1), nil)
}

// referenceSelect is the map-keyed parent choice the dense selectParent
// replaced, kept as an oracle: it ranges over a map, so its iteration order
// is random, and relies on the lowest-NodeID tie rule alone. It returns the
// parent and metric selectParent must leave behind.
func referenceSelect(nbs map[topo.NodeID]*neighborInfo, cur topo.NodeID, curETX, hysteresis float64) (topo.NodeID, float64) {
	refMetric := func(info *neighborInfo) (float64, bool) {
		if !info.heard || math.IsInf(info.advertisedETX, 1) {
			return 0, false
		}
		if !info.hasLinkETX {
			return info.advertisedETX + 1, true
		}
		return info.advertisedETX + info.linkETX, true
	}
	bestID := NoParent
	best := math.Inf(1)
	for nb, info := range nbs {
		m, ok := refMetric(info)
		if !ok {
			continue
		}
		if m < best || (m == best && (bestID == NoParent || nb < bestID)) {
			best, bestID = m, nb
		}
	}
	if bestID == NoParent {
		return cur, curETX
	}
	if cur != NoParent {
		if curM, ok := refMetric(nbs[cur]); ok && bestID != cur && best > curM-hysteresis {
			return cur, curM
		}
	}
	return bestID, best
}

// opStream hands runSelectionSequence its choices: from a seeded generator
// in the test, from the fuzzer's bytes in the fuzz target.
type opStream struct {
	r    *rng.Source
	data []byte
}

// intn returns a choice in [0, n); an exhausted byte stream returns 0.
func (s *opStream) intn(n int) int {
	if s.r != nil {
		return s.r.Intn(n)
	}
	if len(s.data) == 0 {
		return 0
	}
	v := int(s.data[0]) % n
	s.data = s.data[1:]
	return v
}

func (s *opStream) done() bool { return s.r == nil && len(s.data) == 0 }

// runSelectionSequence drives a Protocol through up to steps random
// single-neighbour updates, through ReceiveBeacon and OnDataResult exactly
// as the simulation does, interleaved with forced re-picks by
// randomizeParent. After every update, Parent and PathETX must equal what
// the map-keyed reference picks from the updated neighbour table and the
// parent and metric held before the update, bitwise. Ties are forced by a
// coarse grid of advertised metrics and, at EWMA weight 1, link estimates
// that equal their last sample; unrouted (+Inf) neighbours and a current
// parent inside and outside the hysteresis band occur along the way.
func runSelectionSequence(tb testing.TB, s *opStream, steps int) {
	tb.Helper()
	tp := topo.Grid(5, 10, 0, 15, rng.New(3))
	cfg := DefaultConfig()
	alphas := []float64{1, 0.5, 0.3, 0.25}
	cfg.AlphaBeacon = alphas[s.intn(len(alphas))]
	cfg.AlphaData = alphas[s.intn(len(alphas))]
	cfg.Hysteresis = []float64{0, 0.5, 1.5}[s.intn(3)]
	p := New(cfg, sim.New(), tp, radio.NewStaticUniformLoss(tp, 0), rng.New(1), nil)
	adv := []float64{0, 1, 1.5, 2, 2.5, 3, math.Inf(1)}
	for step := 0; step < steps && !s.done(); step++ {
		op := s.intn(8)
		id := topo.NodeID(1 + s.intn(tp.N()-1))
		if s.intn(16) == 0 {
			id = topo.Sink
		}
		ns := p.nodes[id]
		nbs := tp.Neighbors(id)
		nb := nbs[s.intn(len(nbs))]
		cur, curETX := ns.parent, ns.pathETX
		switch {
		case op == 0:
			if id == topo.Sink {
				continue
			}
			p.randomizeParent(id)
			if ns.parent == cur && math.Float64bits(ns.pathETX) == math.Float64bits(curETX) {
				continue
			}
			m, ok := metric(&ns.neighbors[p.lt.NeighborIndex(topo.Link{From: id, To: ns.parent})])
			if !ok || math.Float64bits(m) != math.Float64bits(ns.pathETX) {
				tb.Fatalf("step %d node %d: randomizeParent picked %d with metric %v, its metric is %v (admissible %v)",
					step, id, ns.parent, ns.pathETX, m, ok)
			}
			continue
		case op < 5:
			info := ns.neighbors[p.lt.NeighborIndex(topo.Link{From: id, To: nb})]
			a := adv[s.intn(len(adv))]
			if s.intn(8) == 0 {
				a = float64(s.intn(256)) / 64
			}
			p.ReceiveBeacon(id, nb, info.lastSeq+1+int64(s.intn(3)), a)
		default:
			p.OnDataResult(id, nb, mac.Result{Attempts: 1 + s.intn(8), Delivered: s.intn(4) != 0})
		}
		wantParent, wantETX := NoParent, 0.0
		if id != topo.Sink {
			ref := make(map[topo.NodeID]*neighborInfo, len(nbs))
			for k, n := range nbs {
				info := ns.neighbors[k]
				ref[n] = &info
			}
			wantParent, wantETX = referenceSelect(ref, cur, curETX, cfg.Hysteresis)
		}
		gotParent, _ := p.Parent(id)
		if gotParent != wantParent || math.Float64bits(p.PathETX(id)) != math.Float64bits(wantETX) {
			tb.Fatalf("step %d node %d: incremental selection picked %d (metric %v), reference %d (metric %v)",
				step, id, gotParent, p.PathETX(id), wantParent, wantETX)
		}
	}
}

// TestSelectParentMatchesReference runs a long random update sequence per
// configuration draw against the map-keyed reference.
func TestSelectParentMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		runSelectionSequence(t, &opStream{r: rng.New(seed)}, 5000)
	}
}

// FuzzParentSelection runs the same check with the fuzzer choosing the
// configuration and every update.
func FuzzParentSelection(f *testing.F) {
	f.Add([]byte{0, 0, 1, 5, 3, 2, 7, 1, 1, 0, 4, 9, 2, 6, 6, 3, 1})
	f.Add([]byte{3, 3, 2, 1, 0, 0, 2, 6, 1, 1, 0, 4, 4, 4, 0, 5, 1, 2, 3, 0, 6, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		runSelectionSequence(t, &opStream{data: data}, len(data))
	})
}

// TestOnDataResultNoAlloc pins the hot-path contract at run time: feeding
// an ARQ outcome back, delivered or not, re-selects the parent without
// allocating.
func TestOnDataResultNoAlloc(t *testing.T) {
	p, _, tp := bootstrap(t, topo.Grid(4, 10, 0, 15, rng.New(8)), 0.1, 9)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		from := topo.NodeID(1 + i%(tp.N()-1))
		to := tp.Neighbors(from)[i%len(tp.Neighbors(from))]
		p.OnDataResult(from, to, mac.Result{Attempts: 1 + i%4, Delivered: i%5 != 0})
		i++
	})
	if allocs != 0 {
		t.Fatalf("OnDataResult allocates %v per call", allocs)
	}
}

func BenchmarkOnDataResult(b *testing.B) {
	p, _, tp := bootstrap(b, topo.Grid(10, 10, 0, 15, rng.New(8)), 0.1, 9)
	type hop struct{ from, to topo.NodeID }
	var hops []hop
	for _, l := range tp.Links() {
		if l.From != topo.Sink {
			hops = append(hops, hop{l.From, l.To})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := hops[i%len(hops)]
		p.OnDataResult(h.from, h.to, mac.Result{Attempts: 1 + i%3, Delivered: i%7 != 0})
	}
}

// BenchmarkReceiveBeacon applies beacons on every link of a converged grid
// in turn, each carrying the sender's current metric and next sequence
// number, as a steady beacon schedule delivers them.
func BenchmarkReceiveBeacon(b *testing.B) {
	p, _, tp := bootstrap(b, topo.Grid(10, 10, 0, 15, rng.New(8)), 0.1, 9)
	links := tp.Links()
	seq0 := make([]int64, len(links))
	for i, l := range links {
		seq0[i] = p.nodes[l.To].beaconSeq
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(links)
		l := links[j]
		p.ReceiveBeacon(l.From, l.To, seq0[j]+1+int64(i/len(links)), p.PathETX(l.To))
	}
}
