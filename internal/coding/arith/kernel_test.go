package arith

import (
	"bytes"
	"testing"

	"dophy/internal/coding/bitio"
	"dophy/internal/coding/model"
	"dophy/internal/rng"
)

// refEncoder is the coder as it was before the kernels: one WriteBit per
// pending bit and a 64-bit divide for every interval scaling. The
// differential tests hold Encoder to it byte for byte.
type refEncoder struct {
	low, high uint64
	pending   int
	w         *bitio.Writer
}

func (e *refEncoder) emit(bit int) {
	e.w.WriteBit(bit)
	for ; e.pending > 0; e.pending-- {
		e.w.WriteBit(1 - bit)
	}
}

func (e *refEncoder) encode(m *model.Static, sym int) {
	lo, hi, total := m.Range(sym)
	span := e.high - e.low + 1
	e.high = e.low + span*uint64(hi)/uint64(total) - 1
	e.low = e.low + span*uint64(lo)/uint64(total)
	for {
		switch {
		case e.high < topBit:
			e.emit(0)
		case e.low >= topBit:
			e.emit(1)
			e.low -= topBit
			e.high -= topBit
		case e.low >= quarter && e.high < topBit+quarter:
			e.pending++
			e.low -= quarter
			e.high -= quarter
		default:
			return
		}
		e.low = (e.low << 1) & mask
		e.high = ((e.high << 1) | 1) & mask
	}
}

func (e *refEncoder) finish() {
	e.pending++
	if e.low < quarter {
		e.emit(0)
	} else {
		e.emit(1)
	}
}

// refDecoder is the matching pre-kernel decoder: bit-by-bit priming and
// divides throughout.
type refDecoder struct {
	low, high, value uint64
	r                *bitio.Reader
}

func newRefDecoder(r *bitio.Reader) *refDecoder {
	d := &refDecoder{high: mask, r: r}
	for i := 0; i < codeBits; i++ {
		d.value = d.value<<1 | uint64(r.ReadBit())
	}
	return d
}

func (d *refDecoder) decode(m *model.Static) (int, error) {
	span := d.high - d.low + 1
	_, _, total := m.Range(0)
	cum := ((d.value-d.low+1)*uint64(total) - 1) / span
	if cum >= uint64(total) {
		return 0, ErrCorrupt
	}
	sym, lo, hi, _ := m.Find(uint32(cum))
	d.high = d.low + span*uint64(hi)/uint64(total) - 1
	d.low = d.low + span*uint64(lo)/uint64(total)
	for {
		switch {
		case d.high < topBit:
		case d.low >= topBit:
			d.low -= topBit
			d.high -= topBit
			d.value -= topBit
		case d.low >= quarter && d.high < topBit+quarter:
			d.low -= quarter
			d.high -= quarter
			d.value -= quarter
		default:
			return sym, nil
		}
		d.low = (d.low << 1) & mask
		d.high = ((d.high << 1) | 1) & mask
		d.value = (d.value<<1 | uint64(d.r.ReadBit())) & mask
	}
}

// kernelCase is a symbol stream coded alternately under two static models,
// the shape of a Dophy annotation (hop index, then count symbol).
type kernelCase struct {
	models [2]*model.Static
	syms   []int
}

// compareKernels encodes c with Encoder and refEncoder and requires
// identical bytes and bit counts, then decodes the stream with Decoder and
// refDecoder and requires the original symbols and identical positions.
func compareKernels(t *testing.T, c kernelCase) {
	t.Helper()
	gw, ww := bitio.NewWriter(), bitio.NewWriter()
	ge := NewEncoder(gw)
	we := &refEncoder{high: mask, w: ww}
	for i, s := range c.syms {
		ge.Encode(c.models[i%2], s)
		we.encode(c.models[i%2], s)
	}
	ge.Finish()
	we.finish()
	if gw.Bits() != ww.Bits() || !bytes.Equal(gw.Bytes(), ww.Bytes()) {
		t.Fatalf("encoded %d bits %x, reference %d bits %x", gw.Bits(), gw.Bytes(), ww.Bits(), ww.Bytes())
	}
	data := gw.Bytes()
	gr, wr := bitio.NewReader(data), bitio.NewReader(data)
	gd, wd := NewDecoder(gr), newRefDecoder(wr)
	for i, s := range c.syms {
		g, gerr := gd.Decode(c.models[i%2])
		w, werr := wd.decode(c.models[i%2])
		if gerr != nil || werr != nil || g != s || w != s {
			t.Fatalf("symbol %d: decoded %d (%v), reference %d (%v), want %d", i, g, gerr, w, werr, s)
		}
		if gr.BitsRead() != wr.BitsRead() {
			t.Fatalf("symbol %d: reader at %d, reference at %d", i, gr.BitsRead(), wr.BitsRead())
		}
	}
}

// kernelModel builds a static model over n symbols from weights: with pow2
// set, quantised to the power-of-two total 2^k (the shift path), otherwise
// the raw weights (almost always a divide-path total).
func kernelModel(weights []uint64, pow2 bool, k int) *model.Static {
	if pow2 {
		for 1<<uint(k) < len(weights) {
			k++
		}
		return model.NewStatic(model.Quantize(weights, 1<<uint(k)))
	}
	freq := make([]uint32, len(weights))
	for i, w := range weights {
		freq[i] = 1 + uint32(w)
	}
	return model.NewStatic(freq)
}

func TestCoderKernelsMatchReference(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 400; trial++ {
		var c kernelCase
		for m := range c.models {
			w := make([]uint64, 1+r.Intn(16))
			for i := range w {
				w[i] = uint64(r.Intn(1000))
			}
			c.models[m] = kernelModel(w, trial%3 != 0, r.Intn(24))
		}
		c.syms = make([]int, r.Intn(200))
		for i := range c.syms {
			c.syms[i] = r.Intn(c.models[i%2].NumSymbols())
		}
		compareKernels(t, c)
	}
}

// FuzzCoderKernels reads byte 0 as two alphabet sizes, byte 1 as the
// power-of-two selector and exponent, the next sizes' worth of bytes as
// model weights, and the rest as symbols.
func FuzzCoderKernels(f *testing.F) {
	f.Add([]byte{0x13, 0x8c, 200, 100, 50, 25, 1, 1, 1, 1, 0, 0, 1, 0, 2, 0, 3, 0, 0, 1})
	f.Add([]byte{0x77, 0x05, 9, 8, 7, 6, 5, 4, 3, 2, 1, 1, 1, 1, 1, 1, 1, 1, 5, 6, 7, 1, 2})
	f.Add(append([]byte{0x01, 0xff, 255, 1, 1, 1}, bytes.Repeat([]byte{0}, 80)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		sizes := [2]int{1 + int(data[0]&0xf), 1 + int(data[0]>>4)}
		pow2, k := data[1]&0x80 != 0, int(data[1]&0x1f)%25
		rest := data[2:]
		var c kernelCase
		for m, n := range sizes {
			if len(rest) < n {
				t.Skip()
			}
			w := make([]uint64, n)
			for i := range w {
				w[i] = uint64(rest[i])
			}
			rest = rest[n:]
			c.models[m] = kernelModel(w, pow2, k)
		}
		c.syms = make([]int, len(rest))
		for i, b := range rest {
			c.syms[i] = int(b) % sizes[i%2]
		}
		compareKernels(t, c)
	})
}
