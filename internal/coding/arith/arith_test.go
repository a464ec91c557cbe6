package arith

import (
	"math"
	"testing"
	"testing/quick"

	"dophy/internal/coding/bitio"
	"dophy/internal/coding/model"
	"dophy/internal/rng"
)

func TestRoundTripStatic(t *testing.T) {
	m := model.NewStatic([]uint32{80, 10, 5, 3, 2})
	syms := []int{0, 0, 0, 1, 0, 2, 0, 0, 4, 3, 0, 0, 1, 0}
	data, bits := EncodeAll(m, syms)
	if bits <= 0 || len(data) == 0 {
		t.Fatalf("empty encoding: %d bits", bits)
	}
	got, err := DecodeAll(m, data, len(syms))
	if err != nil {
		t.Fatal(err)
	}
	for i := range syms {
		if got[i] != syms[i] {
			t.Fatalf("decode mismatch at %d: %v vs %v", i, got, syms)
		}
	}
}

func TestCompressionApproachesEntropy(t *testing.T) {
	// Skewed distribution: entropy well below 1 bit/symbol.
	freq := []uint32{900, 60, 25, 10, 5}
	m := model.NewStatic(freq)
	r := rng.New(2)
	const n = 20000
	syms := make([]int, n)
	counts := make([]uint64, len(freq))
	// Draw symbols from the model's own distribution.
	total := uint32(0)
	for _, f := range freq {
		total += f
	}
	for i := range syms {
		v := uint32(r.Intn(int(total)))
		s, _, _, _ := m.Find(v)
		syms[i] = s
		counts[s]++
	}
	_, bits := EncodeAll(m, syms)
	perSym := float64(bits) / n
	h := model.Entropy(freq)
	if perSym > h*1.05+0.01 {
		t.Fatalf("%.4f bits/sym vs entropy %.4f — coder too far from optimal", perSym, h)
	}
	if perSym < h*0.9 {
		t.Fatalf("%.4f bits/sym below entropy %.4f — impossible, coder broken", perSym, h)
	}
}

func TestSubBitPerSymbol(t *testing.T) {
	// The Dophy headline effect: near-certain symbol codes at << 1 bit.
	m := model.NewStatic([]uint32{990, 5, 3, 2})
	syms := make([]int, 1000) // all zeros
	_, bits := EncodeAll(m, syms)
	perSym := float64(bits) / 1000
	if perSym > 0.1 {
		t.Fatalf("all-zero stream cost %.3f bits/sym, want << 1", perSym)
	}
}

func TestEmptyStream(t *testing.T) {
	m := model.Uniform(4)
	data, bits := EncodeAll(m, nil)
	if bits == 0 && len(data) != 0 {
		t.Fatalf("inconsistent empty encode: %d bits, %d bytes", bits, len(data))
	}
	got, err := DecodeAll(m, data, 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty decode = %v, %v", got, err)
	}
}

func TestSingleSymbolAlphabetUnsupportedTotal(t *testing.T) {
	// A 1-symbol alphabet still roundtrips (0 information).
	m := model.Uniform(1)
	data, _ := EncodeAll(m, []int{0, 0, 0})
	got, err := DecodeAll(m, data, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range got {
		if s != 0 {
			t.Fatal("nonzero symbol from unary alphabet")
		}
	}
}

func TestEncodeAfterFinishPanics(t *testing.T) {
	w := bitio.NewWriter()
	e := NewEncoder(w)
	m := model.Uniform(2)
	e.Encode(m, 1)
	e.Finish()
	defer func() {
		if recover() == nil {
			t.Fatal("Encode after Finish did not panic")
		}
	}()
	e.Encode(m, 0)
}

func TestFinishIdempotent(t *testing.T) {
	w := bitio.NewWriter()
	e := NewEncoder(w)
	e.Encode(model.Uniform(2), 1)
	e.Finish()
	bits := w.Bits()
	e.Finish()
	if w.Bits() != bits {
		t.Fatal("second Finish emitted bits")
	}
}

func TestInterleavedModels(t *testing.T) {
	// Dophy encodes hop-id and retx-count symbols with different models in
	// one stream; verify interleaving works.
	hops := model.Uniform(6)
	counts := model.NewStatic([]uint32{70, 20, 10})
	w := bitio.NewWriter()
	e := NewEncoder(w)
	seq := []struct {
		m   *model.Static
		sym int
	}{
		{hops, 3}, {counts, 0}, {hops, 5}, {counts, 2}, {hops, 0}, {counts, 1},
	}
	for _, s := range seq {
		e.Encode(s.m, s.sym)
	}
	e.Finish()
	d := NewDecoder(bitio.NewReader(w.Bytes()))
	for i, s := range seq {
		got, err := d.Decode(s.m)
		if err != nil || got != s.sym {
			t.Fatalf("interleaved decode %d = %d (%v), want %d", i, got, err, s.sym)
		}
	}
}

// Property: random symbol streams over random alphabets roundtrip exactly.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed uint64, alphaRaw, lenRaw uint8) bool {
		r := rng.New(seed)
		nsym := int(alphaRaw)%20 + 2
		freq := make([]uint32, nsym)
		for i := range freq {
			freq[i] = uint32(r.Intn(1000) + 1)
		}
		m := model.NewStatic(freq)
		n := int(lenRaw)%200 + 1
		syms := make([]int, n)
		for i := range syms {
			syms[i] = r.Intn(nsym)
		}
		data, _ := EncodeAll(m, syms)
		got, err := DecodeAll(m, data, n)
		if err != nil {
			return false
		}
		for i := range syms {
			if got[i] != syms[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBitCountScalesWithSurprise(t *testing.T) {
	m := model.NewStatic([]uint32{99, 1})
	_, cheap := EncodeAll(m, []int{0, 0, 0, 0, 0, 0, 0, 0})
	_, dear := EncodeAll(m, []int{1, 1, 1, 1, 1, 1, 1, 1})
	if dear <= cheap {
		t.Fatalf("rare symbols (%d bits) not dearer than common (%d bits)", dear, cheap)
	}
	wantDear := 8 * math.Log2(100)
	if float64(dear) < wantDear*0.8 {
		t.Fatalf("rare symbol cost %d bits, want >= ~%.1f", dear, wantDear)
	}
}

func BenchmarkEncodeSkewed(b *testing.B) {
	m := model.NewStatic([]uint32{900, 60, 25, 10, 5})
	syms := make([]int, 1000)
	r := rng.New(3)
	for i := range syms {
		if r.Bool(0.1) {
			syms[i] = r.Intn(5)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeAll(m, syms)
	}
	b.SetBytes(int64(len(syms)))
}

func BenchmarkDecodeSkewed(b *testing.B) {
	m := model.NewStatic([]uint32{900, 60, 25, 10, 5})
	syms := make([]int, 1000)
	r := rng.New(3)
	for i := range syms {
		if r.Bool(0.1) {
			syms[i] = r.Intn(5)
		}
	}
	data, _ := EncodeAll(m, syms)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeAll(m, data, len(syms)); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(syms)))
}

func TestSuspendResumeMatchesBatch(t *testing.T) {
	// Encoding symbols with a suspend/resume cycle between every symbol
	// must produce exactly the batch bitstream.
	m := model.NewStatic([]uint32{70, 20, 7, 3})
	r := rng.New(17)
	syms := make([]int, 300)
	for i := range syms {
		syms[i] = r.Intn(4)
	}
	wantData, wantBits := EncodeAll(m, syms)

	// Distributed: marshal the state after every symbol, as each hop would.
	w := bitio.NewWriter()
	e := NewEncoder(w)
	completed := []byte(nil)
	var st State
	for i, s := range syms {
		if i > 0 {
			raw := st.Marshal()
			st2, err := UnmarshalState(raw)
			if err != nil {
				t.Fatal(err)
			}
			e, w = Resume(st2, completed)
		}
		e.Encode(m, s)
		st = e.Suspend(w)
		completed = w.Completed()
	}
	e, w = Resume(st, completed)
	e.Finish()
	gotData, gotBits := w.Bytes(), w.Bits()
	if gotBits != wantBits {
		t.Fatalf("bit counts differ: distributed %d vs batch %d", gotBits, wantBits)
	}
	for i := range wantData {
		if gotData[i] != wantData[i] {
			t.Fatalf("bitstreams differ at byte %d", i)
		}
	}
	// And it must decode.
	got, err := DecodeAll(m, gotData, len(syms))
	if err != nil {
		t.Fatal(err)
	}
	for i := range syms {
		if got[i] != syms[i] {
			t.Fatalf("decode mismatch at %d", i)
		}
	}
}

func TestStateMarshalRoundTrip(t *testing.T) {
	s := State{Low: 0x12345678, High: 0x9abcdef0, Pending: 513, PartialBits: 5, Partial: 0xa8}
	got, err := UnmarshalState(s.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Fatalf("roundtrip = %+v, want %+v", got, s)
	}
}

func TestStateUnmarshalValidation(t *testing.T) {
	if _, err := UnmarshalState(make([]byte, 5)); err == nil {
		t.Fatal("short state accepted")
	}
	bad := State{PartialBits: 3}.Marshal()
	bad[10] = 9 // invalid partial count
	if _, err := UnmarshalState(bad); err == nil {
		t.Fatal("bad partial count accepted")
	}
}

func TestSuspendAfterFinishPanics(t *testing.T) {
	w := bitio.NewWriter()
	e := NewEncoder(w)
	e.Encode(model.Uniform(2), 1)
	e.Finish()
	defer func() {
		if recover() == nil {
			t.Fatal("Suspend after Finish did not panic")
		}
	}()
	e.Suspend(w)
}

func TestDecodeRobustOnGarbage(t *testing.T) {
	// Arithmetic decoding of arbitrary bytes always yields valid symbols
	// (every code value maps to some interval) and never panics.
	m := model.NewStatic([]uint32{907, 50, 25, 10, 5, 2, 1})
	r := rng.New(123)
	for trial := 0; trial < 2000; trial++ {
		n := r.Intn(20)
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(r.Intn(256))
		}
		d := NewDecoder(bitio.NewReader(data))
		for k := 0; k < 50; k++ {
			sym, err := d.Decode(m)
			if err != nil {
				break
			}
			if sym < 0 || sym >= m.NumSymbols() {
				t.Fatalf("invalid symbol %d from garbage", sym)
			}
		}
	}
}
