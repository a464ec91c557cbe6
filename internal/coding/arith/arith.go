// Package arith implements an integer arithmetic coder (Witten–Neal–Cleary
// style with 32-bit registers) over static frequency models.
//
// This is the compression engine behind Dophy's in-packet encoding of
// retransmission counts: with a shared static model whose mass concentrates
// on "zero retransmissions", each hop record costs a fraction of a bit —
// below what any prefix code (e.g. Huffman) can achieve, which is exactly
// the ablation T1/T2 in DESIGN.md measures.
package arith

import (
	"errors"
	"math/bits"

	"dophy/internal/coding/bitio"
	"dophy/internal/coding/model"
)

// MaxTotal bounds model totals so the 64-bit range arithmetic cannot
// overflow or starve intervals.
const MaxTotal = 1 << 24

const (
	codeBits = 32
	topBit   = uint64(1) << (codeBits - 1) // "half"
	quarter  = topBit >> 1
	mask     = (uint64(1) << codeBits) - 1
)

// Encoder writes arithmetic-coded symbols to a bit writer.
type Encoder struct {
	low     uint64
	high    uint64
	pending int
	w       *bitio.Writer
	done    bool
}

// NewEncoder returns an encoder emitting to w. One encoder per packet in
// flight is the modeled in-packet state; steady-state paths reuse one
// encoder with Reset.
func NewEncoder(w *bitio.Writer) *Encoder {
	return &Encoder{high: mask, w: w}
}

// Reset rewinds the encoder to its initial state, emitting to w — the
// allocation-free equivalent of NewEncoder for reusable scratch encoders.
func (e *Encoder) Reset(w *bitio.Writer) {
	e.low, e.high, e.pending, e.done = 0, mask, 0, false
	e.w = w
}

// emit writes bit followed by the pending run of its complement, 64 bits
// per WriteBits (one call for any run a real stream produces).
func (e *Encoder) emit(bit int) {
	e.w.WriteBit(bit)
	var run uint64
	if bit == 0 {
		run = ^uint64(0)
	}
	for e.pending > 0 {
		k := e.pending
		if k > 64 {
			k = 64
		}
		e.w.WriteBits(run, k)
		e.pending -= k
	}
}

// scale returns span*c/total. Power-of-two totals (the count model's 4096,
// uniform hop models of degree 4 or 8) shift instead of dividing; for
// unsigned operands the two are the same integer, so the stream is
// bit-identical either way.
func scale(span uint64, c, total uint32) uint64 {
	if total&(total-1) == 0 {
		return span * uint64(c) >> uint(bits.TrailingZeros32(total))
	}
	return span * uint64(c) / uint64(total)
}

// Encode codes one symbol under m.
func (e *Encoder) Encode(m *model.Static, sym int) {
	if e.done {
		panic("arith: Encode after Finish")
	}
	lo, hi, total := m.Range(sym)
	if total == 0 || lo >= hi || uint64(total) > MaxTotal {
		panic("arith: invalid model interval")
	}
	span := e.high - e.low + 1
	e.high = e.low + scale(span, hi, total) - 1
	e.low = e.low + scale(span, lo, total)
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

// Finish flushes the final disambiguation bits. The encoder cannot be used
// afterwards.
func (e *Encoder) Finish() {
	if e.done {
		return
	}
	e.done = true
	e.pending++
	if e.low < quarter {
		e.emit(0)
	} else {
		e.emit(1)
	}
}

// Decoder reads arithmetic-coded symbols from a bit reader.
type Decoder struct {
	low   uint64
	high  uint64
	value uint64
	r     *bitio.Reader
}

// NewDecoder returns a decoder consuming from r.
func NewDecoder(r *bitio.Reader) *Decoder {
	d := &Decoder{}
	d.Reset(r)
	return d
}

// Reset re-primes the decoder from the start of r — the allocation-free
// equivalent of NewDecoder for reusable scratch decoders.
func (d *Decoder) Reset(r *bitio.Reader) {
	d.low, d.high, d.value, d.r = 0, mask, r.ReadBits(codeBits), r
}

// ErrCorrupt reports an undecodable stream (model/stream mismatch).
var ErrCorrupt = errors.New("arith: corrupt stream")

// Decode extracts one symbol under m.
func (d *Decoder) Decode(m *model.Static) (int, error) {
	span := d.high - d.low + 1
	_, _, total := m.Range(0)
	if total == 0 {
		return 0, ErrCorrupt
	}
	cum := ((d.value-d.low+1)*uint64(total) - 1) / span
	if cum >= uint64(total) {
		return 0, ErrCorrupt
	}
	sym, lo, hi, _ := m.Find(uint32(cum))
	d.high = d.low + scale(span, hi, total) - 1
	d.low = d.low + scale(span, lo, total)
	for {
		switch {
		case d.high < topBit:
			// nothing
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

// EncodeAll codes symbols with fresh encoder state and returns the bytes and
// exact bit count.
func EncodeAll(m *model.Static, symbols []int) (data []byte, bits int) {
	w := bitio.NewWriter()
	e := NewEncoder(w)
	for _, s := range symbols {
		e.Encode(m, s)
	}
	e.Finish()
	return w.Bytes(), w.Bits()
}

// DecodeAll decodes exactly n symbols from data.
func DecodeAll(m *model.Static, data []byte, n int) ([]int, error) {
	d := NewDecoder(bitio.NewReader(data))
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		s, err := d.Decode(m)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
