package model

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStaticRanges(t *testing.T) {
	s := NewStatic([]uint32{3, 5, 2})
	cases := []struct{ sym, lo, hi int }{{0, 0, 3}, {1, 3, 8}, {2, 8, 10}}
	for _, c := range cases {
		lo, hi, total := s.Range(c.sym)
		if int(lo) != c.lo || int(hi) != c.hi || total != 10 {
			t.Fatalf("Range(%d) = %d,%d,%d", c.sym, lo, hi, total)
		}
	}
}

func TestStaticFindInverseOfRange(t *testing.T) {
	s := NewStatic([]uint32{3, 5, 2})
	for v := uint32(0); v < 10; v++ {
		sym, lo, hi, _ := s.Find(v)
		if v < lo || v >= hi {
			t.Fatalf("Find(%d) interval [%d,%d) does not contain it", v, lo, hi)
		}
		wantSym := 0
		switch {
		case v >= 8:
			wantSym = 2
		case v >= 3:
			wantSym = 1
		}
		if sym != wantSym {
			t.Fatalf("Find(%d) = %d, want %d", v, sym, wantSym)
		}
	}
}

func TestStaticValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty":     func() { NewStatic(nil) },
		"zero freq": func() { NewStatic([]uint32{1, 0, 2}) },
		"uniform 0": func() { Uniform(0) },
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

func TestUniform(t *testing.T) {
	u := Uniform(4)
	for s := 0; s < 4; s++ {
		lo, hi, total := u.Range(s)
		if hi-lo != 1 || total != 4 {
			t.Fatalf("Uniform Range(%d) = %d,%d,%d", s, lo, hi, total)
		}
	}
}

func TestAggregatorMapping(t *testing.T) {
	g := Aggregator{Threshold: 3, MaxCount: 7}
	if g.NumSymbols() != 4 {
		t.Fatalf("NumSymbols = %d", g.NumSymbols())
	}
	wants := map[int]int{0: 0, 1: 1, 2: 2, 3: 3, 4: 3, 7: 3}
	for count, want := range wants {
		if got := g.Map(count); got != want {
			t.Fatalf("Map(%d) = %d, want %d", count, got, want)
		}
	}
	if !g.IsTail(3) || g.IsTail(2) {
		t.Fatal("IsTail wrong")
	}
}

func TestAggregatorDisabled(t *testing.T) {
	g := Aggregator{Threshold: 0, MaxCount: 7}
	if g.NumSymbols() != 8 {
		t.Fatalf("NumSymbols = %d", g.NumSymbols())
	}
	for c := 0; c <= 7; c++ {
		if g.Map(c) != c {
			t.Fatal("identity mapping broken")
		}
	}
	if g.IsTail(7) {
		t.Fatal("disabled aggregator has no tail")
	}
	// Threshold beyond MaxCount also disables.
	g2 := Aggregator{Threshold: 9, MaxCount: 7}
	if g2.NumSymbols() != 8 || g2.IsTail(7) {
		t.Fatal("out-of-range threshold should disable aggregation")
	}
}

func TestAggregatorPanicsOutOfRange(t *testing.T) {
	g := Aggregator{Threshold: 2, MaxCount: 7}
	for _, c := range []int{-1, 8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Map(%d) did not panic", c)
				}
			}()
			g.Map(c)
		}()
	}
}

func TestQuantizeSumsToTotal(t *testing.T) {
	q := Quantize([]uint64{100, 10, 1, 0}, 256)
	var sum uint32
	for _, f := range q {
		if f == 0 {
			t.Fatalf("quantized zero frequency: %v", q)
		}
		sum += f
	}
	if sum != 256 {
		t.Fatalf("quantized total = %d, want 256", sum)
	}
	if q[0] < q[1] || q[1] < q[2] {
		t.Fatalf("quantization lost ordering: %v", q)
	}
}

func TestQuantizeEmptyCountsUniform(t *testing.T) {
	q := Quantize([]uint64{0, 0, 0}, 10)
	if q[0]+q[1]+q[2] != 10 {
		t.Fatalf("total = %v", q)
	}
	for _, f := range q {
		if f < 3 || f > 4 {
			t.Fatalf("non-uniform fallback: %v", q)
		}
	}
}

func TestQuantizePreservesDistribution(t *testing.T) {
	counts := []uint64{800, 150, 40, 10}
	q := Quantize(counts, 1024)
	var total uint32
	for _, f := range q {
		total += f
	}
	for i := range counts {
		want := float64(counts[i]) / 1000
		got := float64(q[i]) / float64(total)
		if math.Abs(want-got) > 0.01 {
			t.Fatalf("symbol %d: quantized %v vs true %v", i, got, want)
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	freq := []uint32{100, 50, 25, 12, 69}
	const total = 256
	data := Serialize(freq, total)
	got, err := Deserialize(data, len(freq), total)
	if err != nil {
		t.Fatal(err)
	}
	for i := range freq {
		if got[i] != freq[i] {
			t.Fatalf("roundtrip = %v, want %v", got, freq)
		}
	}
}

func TestDeserializeShortData(t *testing.T) {
	if _, err := Deserialize([]byte{0x01}, 5, 256); err == nil {
		t.Fatal("short data accepted")
	}
}

func TestTableBitsMatchesSerialize(t *testing.T) {
	freq := []uint32{1, 2, 3, 250}
	const total = 256
	bits := TableBits(len(freq), total)
	data := Serialize(freq, total)
	if (bits+7)/8 != len(data) {
		t.Fatalf("TableBits %d inconsistent with %d bytes", bits, len(data))
	}
}

func TestEntropy(t *testing.T) {
	if h := Entropy([]uint32{1, 1}); math.Abs(h-1) > 1e-12 {
		t.Fatalf("fair coin entropy = %v", h)
	}
	if h := Entropy([]uint32{1, 1, 1, 1}); math.Abs(h-2) > 1e-12 {
		t.Fatalf("4-uniform entropy = %v", h)
	}
	if h := Entropy([]uint32{100}); h != 0 {
		t.Fatalf("deterministic entropy = %v", h)
	}
}

func TestCrossEntropyAtLeastEntropy(t *testing.T) {
	p := []uint64{90, 7, 3}
	matched := Quantize(p, 1<<16)
	hMatched := CrossEntropy(p, matched)
	stale := []uint32{1, 1, 1} // uniform (wrong) model
	hStale := CrossEntropy(p, stale)
	if hStale <= hMatched {
		t.Fatalf("stale model (%v bits) not worse than matched (%v bits)", hStale, hMatched)
	}
}

// Property: quantize always sums to total with all entries >= 1.
func TestQuickQuantize(t *testing.T) {
	f := func(raw []uint16, totRaw uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		counts := make([]uint64, len(raw))
		for i, v := range raw {
			counts[i] = uint64(v)
		}
		total := uint32(totRaw) + uint32(len(raw)) // ensure >= n
		q := Quantize(counts, total)
		var sum uint32
		for _, f := range q {
			if f == 0 {
				return false
			}
			sum += f
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBitsFor(t *testing.T) {
	for n, want := range map[int]int{0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 49: 6, 4096: 12, 4097: 13} {
		if got := BitsFor(n); got != want {
			t.Errorf("BitsFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestGeometricPriorDecays(t *testing.T) {
	for _, n := range []int{1, 4, 8} {
		freq := GeometricPrior(n, 1<<12)
		var total uint32
		for i, f := range freq {
			total += f
			if f == 0 || (i > 0 && f > freq[i-1]) {
				t.Fatalf("n=%d: prior %v is not positive and non-increasing", n, freq)
			}
		}
		if len(freq) != n || total != 1<<12 {
			t.Fatalf("n=%d: prior %v sums to %d", n, freq, total)
		}
	}
}
