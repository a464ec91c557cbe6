package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2)) > 1e-12 {
		t.Fatalf("std = %v", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

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

func TestErrors(t *testing.T) {
	est := []float64{1, 2, 3}
	truth := []float64{1.5, 2, 2}
	if got := MAE(est, truth); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("MAE = %v", got)
	}
	wantRMSE := math.Sqrt((0.25 + 0 + 1) / 3)
	if got := RMSE(est, truth); math.Abs(got-wantRMSE) > 1e-12 {
		t.Fatalf("RMSE = %v", got)
	}
	if got := MaxAbsErr(est, truth); got != 1 {
		t.Fatalf("MaxAbsErr = %v", got)
	}
}

func TestErrorsEmpty(t *testing.T) {
	if MAE(nil, nil) != 0 || RMSE(nil, nil) != 0 || MaxAbsErr(nil, nil) != 0 {
		t.Fatal("empty errors nonzero")
	}
}

func TestErrorsMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MAE([]float64{1}, []float64{1, 2})
}

func TestCDF(t *testing.T) {
	x, f := CDF([]float64{3, 1, 2, 2})
	wantX := []float64{1, 2, 3}
	wantF := []float64{0.25, 0.75, 1}
	if len(x) != 3 {
		t.Fatalf("CDF x = %v", x)
	}
	for i := range wantX {
		if x[i] != wantX[i] || math.Abs(f[i]-wantF[i]) > 1e-12 {
			t.Fatalf("CDF = %v %v", x, f)
		}
	}
}

func TestCDFEmpty(t *testing.T) {
	x, f := CDF(nil)
	if x != nil || f != nil {
		t.Fatal("empty CDF nonempty")
	}
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
