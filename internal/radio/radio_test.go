package radio

import (
	"math"
	"testing"
	"testing/quick"

	"dophy/internal/rng"
	"dophy/internal/sim"
	"dophy/internal/topo"
)

func testTopo(t *testing.T) *topo.Topology {
	t.Helper()
	tp := topo.Grid(4, 10, 0, 15, rng.New(1))
	if !tp.Connected() {
		t.Fatal("test topology disconnected")
	}
	return tp
}

func TestPRRFromDistanceMonotone(t *testing.T) {
	prev := 1.0
	for d := 0.0; d <= 30; d += 0.5 {
		p := prrFromDistance(d, 20)
		if p > prev+1e-12 {
			t.Fatalf("PRR increased with distance at d=%v", d)
		}
		if p < 0 || p > 1 {
			t.Fatalf("PRR out of range at d=%v: %v", d, p)
		}
		prev = p
	}
	if p := prrFromDistance(1, 20); p < 0.95 {
		t.Fatalf("very short link PRR = %v, want near 1", p)
	}
	if p := prrFromDistance(30, 20); p > 0.1 {
		t.Fatalf("beyond-range link PRR = %v, want near 0", p)
	}
}

func TestStaticStableAndInRange(t *testing.T) {
	tp := testTopo(t)
	m := NewStatic(tp, DefaultBase(), 42)
	for _, l := range tp.Links() {
		p0 := m.PRR(l, 0)
		p1 := m.PRR(l, 1000)
		if p0 != p1 {
			t.Fatalf("static PRR changed over time on %v", l)
		}
		if p0 < 0.01 || p0 > 1 {
			t.Fatalf("PRR out of range on %v: %v", l, p0)
		}
	}
}

func TestStaticDeterministicBySeed(t *testing.T) {
	tp := testTopo(t)
	a := NewStatic(tp, DefaultBase(), 7)
	b := NewStatic(tp, DefaultBase(), 7)
	c := NewStatic(tp, DefaultBase(), 8)
	same := true
	for _, l := range tp.Links() {
		if a.PRR(l, 0) != b.PRR(l, 0) {
			t.Fatalf("same seed, different PRR on %v", l)
		}
		if a.PRR(l, 0) != c.PRR(l, 0) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical link maps")
	}
}

func TestStaticUniformLoss(t *testing.T) {
	tp := testTopo(t)
	m := NewStaticUniformLoss(tp, 0.2)
	for _, l := range tp.Links() {
		if got := m.PRR(l, 0); math.Abs(got-0.8) > 1e-12 {
			t.Fatalf("uniform loss PRR = %v, want 0.8", got)
		}
	}
}

// TestUnknownLinkZero checks every model, including the failure overlay,
// reads PRR 0 on links the topology does not have: self-links, node pairs
// out of range of each other, and ids outside the network.
func TestUnknownLinkZero(t *testing.T) {
	tp := testTopo(t)
	models := allModels(tp, 1)
	models["failures"] = NewNodeFailures(NewStaticUniformLoss(tp, 0), tp.N(), 50, 20, 1)
	for name, m := range models {
		for _, ghost := range nonLinks(t, tp) {
			for _, now := range []sim.Time{0, 100} {
				if got := m.PRR(ghost, now); got != 0 {
					t.Fatalf("%s: non-link %v at %v has PRR %v, want 0", name, ghost, now, got)
				}
			}
		}
	}
}

// nonLinks returns links testTopo does not have: a self-link, a pair of
// nodes out of range of each other, and ids outside the network.
func nonLinks(t *testing.T, tp *topo.Topology) []topo.Link {
	t.Helper()
	if tp.Adjacent(0, 15) {
		t.Fatal("test expects nodes 0 and 15 out of range")
	}
	return []topo.Link{{From: 0, To: 0}, {From: 0, To: 15}, {From: 1000, To: 1001}, {From: -1, To: 2}}
}

// allModels builds one model of each kind over tp from one seed.
func allModels(tp *topo.Topology, seed uint64) map[string]Model {
	return map[string]Model{
		"static": NewStatic(tp, DefaultBase(), seed),
		"walk":   NewRandomWalk(tp, DefaultBase(), 1, 0.2, seed),
		"ge":     NewGilbertElliott(tp, DefaultBase(), 10, 5, 0.3, seed),
	}
}

// TestPRRQueryOrderIndependent pins the package's replay claim: a link's
// PRR sequence depends only on the seed and the query times, not on the
// order links are queried in. Two identical models are queried at the same
// times, one in canonical link order and one in a freshly shuffled order
// each time, and every answer must agree bitwise.
func TestPRRQueryOrderIndependent(t *testing.T) {
	tp := testTopo(t)
	links := tp.Links()
	for _, kind := range []string{"walk", "ge"} {
		a, b := allModels(tp, 21)[kind], allModels(tp, 21)[kind]
		shuf := rng.New(99)
		got := make([]float64, len(links))
		for now := sim.Time(0); now < 400; now += 3.7 {
			for _, k := range shuf.Perm(len(links)) {
				got[k] = b.PRR(links[k], now)
			}
			for k, l := range links {
				if want := a.PRR(l, now); math.Float64bits(want) != math.Float64bits(got[k]) {
					t.Fatalf("%s: %v at %v: canonical order %v, shuffled order %v", kind, l, now, want, got[k])
				}
			}
		}
	}
}

// TestPRRNoAlloc pins the hot-path contract at run time: a PRR query on an
// existing link, including one that advances lazy state, allocates nothing.
func TestPRRNoAlloc(t *testing.T) {
	tp := testTopo(t)
	links := tp.Links()
	for name, m := range allModels(tp, 5) {
		now := sim.Time(0)
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			m.PRR(links[i%len(links)], now)
			i++
			now += 0.5
		})
		if allocs != 0 {
			t.Fatalf("%s: PRR allocates %v per call", name, allocs)
		}
	}
}

func TestRandomWalkDrifts(t *testing.T) {
	tp := testTopo(t)
	m := NewRandomWalk(tp, DefaultBase(), 1, 0.3, 5)
	l := tp.Links()[0]
	p0 := m.PRR(l, 0)
	p1 := m.PRR(l, 500)
	if p0 == p1 {
		t.Fatalf("random walk did not move after 500 steps: %v", p0)
	}
	if p1 < 0.01 || p1 > 1 {
		t.Fatalf("walked PRR out of range: %v", p1)
	}
}

func TestRandomWalkLazyConsistent(t *testing.T) {
	tp := testTopo(t)
	l := tp.Links()[2]
	// Query every step vs jump straight to the end: same final value.
	a := NewRandomWalk(tp, DefaultBase(), 1, 0.2, 9)
	for now := sim.Time(0); now <= 100; now++ {
		a.PRR(l, now)
	}
	pa := a.PRR(l, 100)
	b := NewRandomWalk(tp, DefaultBase(), 1, 0.2, 9)
	pb := b.PRR(l, 100)
	if math.Abs(pa-pb) > 1e-12 {
		t.Fatalf("lazy advance inconsistent: %v vs %v", pa, pb)
	}
}

// TestRandomWalkPRRMatchesUncached is the oracle for the walk's PRR memo:
// every answer must equal, bitwise, expit of the logit the walk holds at
// that moment. It covers the first queries at t=0 (before any step, when the
// memo still holds its construction value), repeated queries within one
// step, queries that cross one step boundary and queries that jump several.
func TestRandomWalkPRRMatchesUncached(t *testing.T) {
	tp := testTopo(t)
	links := tp.Links()
	m := NewRandomWalk(tp, DefaultBase(), 1, 0.3, 13)
	check := func(l topo.Link, now sim.Time) {
		t.Helper()
		got := m.PRR(l, now)
		want := expit(m.links[m.lt.Index(l)].logitPRR)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v at %v: PRR %v, expit(logitPRR) %v", l, now, got, want)
		}
	}
	for _, l := range links {
		check(l, 0)
		check(l, 0)
	}
	r := rng.New(31)
	now := sim.Time(0)
	for i := 0; i < 20000; i++ {
		switch r.Intn(4) {
		case 0: // next step boundary exactly
			now = sim.Time(int64(now/m.Interval)+1) * m.Interval
		case 1: // several steps at once
			now += sim.Time(r.Range(1, 5))
		default: // within the current step
			now += sim.Time(r.Range(0, 0.2))
		}
		l := links[r.Intn(len(links))]
		check(l, now)
		check(l, now)
	}
}

func TestRandomWalkBounded(t *testing.T) {
	tp := testTopo(t)
	m := NewRandomWalk(tp, DefaultBase(), 1, 1.0, 3) // violent walk
	for _, l := range tp.Links() {
		for _, now := range []sim.Time{10, 100, 1000} {
			p := m.PRR(l, now)
			if p < 0.015 || p > 0.999 {
				t.Fatalf("walk escaped bounds on %v at %v: %v", l, now, p)
			}
		}
	}
}

func TestGilbertElliottTwoLevels(t *testing.T) {
	tp := testTopo(t)
	m := NewGilbertElliott(tp, DefaultBase(), 10, 10, 0.25, 11)
	l := tp.Links()[0]
	base := m.links[m.lt.Index(l)].base
	seenGood, seenBad := false, false
	for now := sim.Time(0); now < 500; now += 0.5 {
		p := m.PRR(l, now)
		if math.Abs(p-base) < 1e-12 {
			seenGood = true
		} else if math.Abs(p-clamp(base*0.25, 0.01, 1)) < 1e-12 {
			seenBad = true
		} else {
			t.Fatalf("PRR %v is neither good (%v) nor bad level", p, base)
		}
	}
	if !seenGood || !seenBad {
		t.Fatalf("states visited: good=%v bad=%v; expected both over 500s", seenGood, seenBad)
	}
}

func TestGilbertElliottDwellFractions(t *testing.T) {
	tp := testTopo(t)
	// Asymmetric dwells: ~2/3 good, ~1/3 bad.
	m := NewGilbertElliott(tp, DefaultBase(), 20, 10, 0.2, 13)
	goodTime := 0.0
	total := 0.0
	l := tp.Links()[1]
	base := m.links[m.lt.Index(l)].base
	const dt = 0.25
	for now := sim.Time(0); now < 20000; now += dt {
		if math.Abs(m.PRR(l, now)-base) < 1e-12 {
			goodTime += dt
		}
		total += dt
	}
	frac := goodTime / total
	if math.Abs(frac-2.0/3) > 0.06 {
		t.Fatalf("good-state fraction = %v, want ~0.667", frac)
	}
}

func TestConstructorsPanicOnBadParams(t *testing.T) {
	tp := testTopo(t)
	for name, fn := range map[string]func(){
		"walk zero interval": func() { NewRandomWalk(tp, DefaultBase(), 0, 0.1, 1) },
		"ge zero dwell":      func() { NewGilbertElliott(tp, DefaultBase(), 0, 1, 0.5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: every model keeps PRR within [0,1] for arbitrary query times.
func TestQuickPRRInRange(t *testing.T) {
	tp := topo.Grid(3, 10, 0, 15, rng.New(2))
	models := []Model{
		NewStatic(tp, DefaultBase(), 3),
		NewRandomWalk(tp, DefaultBase(), 1, 0.4, 3),
		NewGilbertElliott(tp, DefaultBase(), 5, 5, 0.3, 3),
	}
	links := tp.Links()
	f := func(tRaw uint16, li uint8) bool {
		now := sim.Time(tRaw) / 100
		l := links[int(li)%len(links)]
		for _, m := range models {
			p := m.PRR(l, now)
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// benchPRR is a sink for BenchmarkPRR's results.
var benchPRR float64

// BenchmarkPRR queries every link in turn. At 0.1 simulated seconds per
// query the 10x10 grid revisits a link about every 36 s, so the walk steps
// on every query of the "walk" case. "walk-same-step" starts a fresh walk
// and advances the clock 1e4 times slower, so a link is queried about 280
// times per step and most queries read the memoised PRR, as on a link that
// carries steady traffic.
func BenchmarkPRR(b *testing.B) {
	tp := topo.Grid(10, 10, 0, 15, rng.New(1))
	links := tp.Links()
	models := allModels(tp, 1)
	for _, name := range []string{"static", "walk", "ge"} {
		m := models[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchPRR = m.PRR(links[i%len(links)], sim.Time(i)/10)
			}
		})
	}
	b.Run("walk-same-step", func(b *testing.B) {
		m := allModels(tp, 1)["walk"]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchPRR = m.PRR(links[i%len(links)], sim.Time(i)/1e5)
		}
	})
}
