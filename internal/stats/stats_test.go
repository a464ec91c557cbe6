package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestQuantile(t *testing.T) {
	sorted := []float64{0, 10, 20, 30, 40}
	cases := map[float64]float64{0: 0, 0.25: 10, 0.5: 20, 0.75: 30, 1: 40, 0.125: 5}
	for q, want := range cases {
		if got := Quantile(sorted, q); math.Abs(got-want) > 1e-12 {
			t.Fatalf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestQuantileSingleton(t *testing.T) {
	if Quantile([]float64{7}, 0.5) != 7 {
		t.Fatal("singleton quantile wrong")
	}
}

func TestQuantileEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Quantile(nil, 0.5)
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 || Mean(nil) != 0 {
		t.Fatal("Mean wrong")
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
			v := Quantile(xs, q)
			if v < prev || v < xs[0] || v > xs[len(xs)-1] {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
