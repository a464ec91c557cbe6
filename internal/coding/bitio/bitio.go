// Package bitio provides MSB-first bit-level readers and writers over byte
// slices, the transport for the arithmetic coder's output.
package bitio

// Writer accumulates bits MSB-first into a growing byte slice.
type Writer struct {
	buf  []byte
	cur  byte
	nCur int // bits currently buffered in cur
	bits int // total bits written
}

// NewWriter returns an empty writer. One writer per packet in flight is the
// modeled in-packet state; steady-state paths reuse one writer with Reset.
func NewWriter() *Writer { return &Writer{} }

// Reset empties the writer for reuse, keeping the backing buffer so
// steady-state encoding performs no allocation.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.cur, w.nCur, w.bits = 0, 0, 0
}

// WriteBit appends a single bit (any non-zero b counts as 1).
func (w *Writer) WriteBit(b int) {
	w.cur <<= 1
	if b != 0 {
		w.cur |= 1
	}
	w.nCur++
	w.bits++
	if w.nCur == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
	}
}

// WriteBits appends the low n bits of v, most significant first. n must be
// in [0, 64]. Each step moves as many bits as fit in the partial byte, so a
// call costs at most one step per output byte touched.
func (w *Writer) WriteBits(v uint64, n int) {
	if n < 0 || n > 64 {
		panic("bitio: WriteBits width out of range")
	}
	w.bits += n
	for n > 0 {
		k := 8 - w.nCur
		if k > n {
			k = n
		}
		n -= k
		w.cur = w.cur<<uint(k) | byte(v>>uint(n))&(0xFF>>uint(8-k))
		w.nCur += k
		if w.nCur == 8 {
			w.buf = append(w.buf, w.cur)
			w.cur, w.nCur = 0, 0
		}
	}
}

// Bits returns the number of bits written so far.
func (w *Writer) Bits() int { return w.bits }

// Partial returns the partially-filled trailing byte and how many of its
// low-order-written bits are valid (0..7). Completed() returns the full
// bytes. Together they allow a writer to be suspended and resumed.
func (w *Writer) Partial() (b byte, n int) { return w.cur, w.nCur }

// Completed returns the fully-written bytes (without the partial byte).
// The returned slice is a copy.
func (w *Writer) Completed() []byte {
	// The copy is the payload snapshot a packet carries between hops.
	out := make([]byte, len(w.buf))
	copy(out, w.buf)
	return out
}

// NewWriterFrom reconstructs a writer from completed bytes plus a partial
// byte holding n valid bits — the inverse of Completed/Partial.
func NewWriterFrom(completed []byte, partial byte, n int) *Writer {
	if n < 0 || n > 7 {
		panic("bitio: partial bit count out of range")
	}
	// A resumed stream needs its own backing buffer: the stream is per packet.
	w := &Writer{
		buf:  append([]byte(nil), completed...),
		cur:  partial,
		nCur: n,
		bits: len(completed)*8 + n,
	}
	return w
}

// Bytes returns the written bits padded with zeros to a byte boundary. The
// writer remains usable; Bytes may be called repeatedly.
func (w *Writer) Bytes() []byte {
	return w.AppendBytes(nil)
}

// AppendBytes appends the written bits, zero-padded to a byte boundary, to
// dst and returns the extended slice — the allocation-free variant of Bytes
// for callers that own a scratch buffer.
func (w *Writer) AppendBytes(dst []byte) []byte {
	dst = append(dst, w.buf...)
	if w.nCur > 0 {
		dst = append(dst, w.cur<<uint(8-w.nCur))
	}
	return dst
}

// Reader consumes bits MSB-first from a byte slice. Reads past the end
// return zero bits, which is exactly the convention the arithmetic decoder
// needs to flush its final symbols.
type Reader struct {
	buf  []byte
	pos  int // bit position
	over int // bits read past the end
}

// NewReader wraps buf (not copied).
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Reset points the reader at buf (not copied) and rewinds it, for reuse
// without allocation.
func (r *Reader) Reset(buf []byte) {
	r.buf = buf
	r.pos, r.over = 0, 0
}

// ReadBit returns the next bit, or 0 once the input is exhausted.
func (r *Reader) ReadBit() int {
	byteIdx := r.pos >> 3
	if byteIdx >= len(r.buf) {
		r.over++
		r.pos++
		return 0
	}
	bit := int(r.buf[byteIdx]>>uint(7-r.pos&7)) & 1
	r.pos++
	return bit
}

// ReadBits returns the next n bits as the low bits of a uint64, MSB-first.
// Like WriteBits it moves up to a byte's remainder per step; bits past the
// end read as zero and count towards Overrun.
func (r *Reader) ReadBits(n int) uint64 {
	if n < 0 || n > 64 {
		panic("bitio: ReadBits width out of range")
	}
	var v uint64
	for n > 0 {
		off := r.pos & 7
		k := 8 - off
		if k > n {
			k = n
		}
		var chunk uint64
		if byteIdx := r.pos >> 3; byteIdx < len(r.buf) {
			chunk = uint64(r.buf[byteIdx]>>uint(8-off-k)) & (0xFF >> uint(8-k))
		} else {
			r.over += k
		}
		v = v<<uint(k) | chunk
		r.pos += k
		n -= k
	}
	return v
}

// BitsRead returns how many bits have been consumed (including synthetic
// zero bits past the end).
func (r *Reader) BitsRead() int { return r.pos }

// Overrun returns how many bits were read past the end of the buffer.
func (r *Reader) Overrun() int { return r.over }
