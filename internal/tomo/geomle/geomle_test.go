package geomle

import (
	"math"
	"testing"
	"testing/quick"

	"dophy/internal/rng"
	"dophy/internal/topo"
)

// sample draws n delivered-packet attempt counts for success prob p and max
// attempts m, returning observations with optional aggregation threshold a
// (a == 0 disables aggregation).
func sample(r *rng.Source, p float64, m, a, n int) Obs {
	exactLen := m
	if a > 0 && a < m {
		exactLen = a
	}
	obs := Obs{Exact: make([]float64, exactLen)}
	for drawn := 0; drawn < n; {
		t := r.Geometric(p) + 1
		if t > m {
			continue // dropped packet: unobserved
		}
		drawn++
		if t <= exactLen {
			obs.Exact[t-1]++
		} else {
			obs.Censored++
		}
	}
	return obs
}

func TestRecoverKnownP(t *testing.T) {
	r := rng.New(1)
	for _, p := range []float64{0.95, 0.8, 0.6, 0.4} {
		obs := sample(r, p, 8, 0, 20000)
		got, err := obs.EstimateP(8)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-p) > 0.02 {
			t.Fatalf("p = %v: estimated %v", p, got)
		}
	}
}

func TestRecoverWithCensoring(t *testing.T) {
	r := rng.New(2)
	for _, p := range []float64{0.8, 0.5, 0.3} {
		obs := sample(r, p, 8, 3, 20000)
		got, err := obs.EstimateP(8)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-p) > 0.03 {
			t.Fatalf("p = %v with censoring: estimated %v", p, got)
		}
	}
}

func TestCensoringCostsLittleForGoodLinks(t *testing.T) {
	// For a good link, aggregation at 2 should barely move the estimate.
	r := rng.New(3)
	p := 0.9
	full := sample(r, p, 8, 0, 30000)
	agg := sample(rng.New(3), p, 8, 2, 30000)
	pf, _ := full.EstimateP(8)
	pa, _ := agg.EstimateP(8)
	if math.Abs(pf-pa) > 0.01 {
		t.Fatalf("aggregation moved estimate: %v vs %v", pf, pa)
	}
}

func TestPerfectLink(t *testing.T) {
	obs := Obs{Exact: []float64{1000, 0, 0, 0}}
	p, err := obs.EstimateP(4)
	if err != nil || p != 1 {
		t.Fatalf("perfect link p = %v, %v", p, err)
	}
	if loss := 1 - p; loss != 0 {
		t.Fatalf("perfect link loss = %v", loss)
	}
}

func TestTerribleLink(t *testing.T) {
	// All deliveries at the last attempt: p-hat must be small.
	obs := Obs{Exact: []float64{0, 0, 0, 0, 0, 0, 0, 500}}
	p, err := obs.EstimateP(8)
	if err != nil {
		t.Fatal(err)
	}
	if p > 0.1 {
		t.Fatalf("all-last-attempt link p = %v, want small", p)
	}
}

func TestNoObservationsErrors(t *testing.T) {
	obs := Obs{Exact: make([]float64, 4)}
	if _, err := obs.EstimateP(4); err == nil {
		t.Fatal("no observations accepted")
	}
}

func TestConfigErrors(t *testing.T) {
	obs := Obs{Exact: []float64{1, 1, 1, 1, 1}}
	if _, err := obs.EstimateP(4); err == nil {
		t.Fatal("exact bins beyond max attempts accepted")
	}
	bad := Obs{Exact: []float64{1, 1}, Censored: 3}
	if _, err := bad.EstimateP(2); err == nil {
		t.Fatal("censored mass with no tail room accepted")
	}
	if _, err := (Obs{Exact: []float64{1}}).EstimateP(0); err == nil {
		t.Fatal("max attempts 0 accepted")
	}
}

func TestAddAttempt(t *testing.T) {
	obs := Obs{Exact: make([]float64, 3)}
	obs.AddAttempt(1)
	obs.AddAttempt(3)
	obs.AddAttempt(3)
	if obs.Exact[0] != 1 || obs.Exact[2] != 2 || obs.Total() != 3 {
		t.Fatalf("obs = %+v", obs)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range attempt accepted")
		}
	}()
	obs.AddAttempt(4)
}

func TestTruncationBiasHandled(t *testing.T) {
	// A naive method-of-moments on delivered packets underestimates loss
	// because heavy-loss packets vanish. Verify the MLE corrects this: at
	// p = 0.3, m = 4, the naive estimate from E[T|delivered] is far off.
	r := rng.New(4)
	p := 0.3
	obs := sample(r, p, 4, 0, 30000)
	got, err := obs.EstimateP(4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-p) > 0.02 {
		t.Fatalf("truncated MLE = %v, want ~%v", got, p)
	}
	// Naive: p-naive = 1/E[T] over delivered packets only.
	var sumT, n float64
	for i, c := range obs.Exact {
		sumT += float64(i+1) * float64(c)
		n += float64(c)
	}
	naive := n / sumT
	if math.Abs(naive-p) < math.Abs(got-p) {
		t.Fatalf("test premise broken: naive %v beats MLE %v", naive, got)
	}
}

func TestStdErrShrinksWithSamples(t *testing.T) {
	r := rng.New(5)
	small := sample(r, 0.7, 8, 0, 100)
	large := sample(r, 0.7, 8, 0, 10000)
	ps, _ := small.EstimateP(8)
	pl, _ := large.EstimateP(8)
	ses := small.StdErr(8, ps)
	sel := large.StdErr(8, pl)
	if ses == 0 || sel == 0 {
		t.Fatalf("degenerate std errs: %v %v", ses, sel)
	}
	if sel >= ses {
		t.Fatalf("std err did not shrink: %v -> %v", ses, sel)
	}
}

func TestStdErrBoundary(t *testing.T) {
	obs := Obs{Exact: []float64{100, 0, 0}}
	if se := obs.StdErr(3, 1); se != 0 {
		t.Fatalf("boundary std err = %v, want 0", se)
	}
}

func TestDropConversionRoundTrip(t *testing.T) {
	for _, loss := range []float64{0.05, 0.2, 0.5} {
		drop := DropProbability(loss, 8)
		back := LossFromDrop(drop, 8)
		if math.Abs(back-loss) > 1e-12 {
			t.Fatalf("roundtrip %v -> %v -> %v", loss, drop, back)
		}
	}
	if LossFromDrop(0, 8) != 0 || LossFromDrop(1, 8) != 1 {
		t.Fatal("degenerate conversions wrong")
	}
}

// Property: the estimate is always a valid probability and reproducible.
func TestQuickEstimateValid(t *testing.T) {
	f := func(seed uint64, pRaw uint8, aggRaw uint8) bool {
		p := 0.05 + float64(pRaw%90)/100
		a := int(aggRaw) % 9 // 0..8
		r := rng.New(seed)
		obs := sample(r, p, 8, a, 500)
		if obs.Total() == 0 {
			return true
		}
		got, err := obs.EstimateP(8)
		if err != nil {
			return false
		}
		if got < 0 || got > 1 || math.IsNaN(got) {
			return false
		}
		got2, _ := obs.EstimateP(8)
		return got == got2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEstimate(b *testing.B) {
	obs := sample(rng.New(1), 0.7, 8, 3, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := obs.EstimateP(8); err != nil {
			b.Fatal(err)
		}
	}
}

// TestArenaEstimatesRule: the estimate pass reports, in link order, only
// links with observations, at least minSamples of them, and an MLE.
func TestArenaEstimatesRule(t *testing.T) {
	const m = 3
	a := NewArena(5, m)
	a.Reset()
	for i := 0; i < 5; i++ { // link 1: too few samples
		a.At(1).AddAttempt(1)
	}
	for i := 0; i < 12; i++ { // links 2 and 4: enough samples
		a.At(2).AddAttempt(1)
		a.At(4).AddAttempt(2)
	}
	for i := 0; i < 8; i++ {
		a.At(2).AddAttempt(2)
	}
	a.At(3).Censored = 12 // no tail room with m exact bins: no MLE
	var got []topo.LinkIdx
	a.Estimates(m, 10, func(i topo.LinkIdx, obs *Obs, p float64, samples int64) {
		got = append(got, i)
		want, err := a.At(i).EstimateP(m)
		if err != nil || p != want || obs != a.At(i) || samples != int64(obs.Total()+0.5) {
			t.Fatalf("link %d: p %v samples %d, want p %v (err %v) samples %v", i, p, samples, want, err, obs.Total())
		}
	})
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("estimated links %v, want [2 4]", got)
	}
}
