package bitio

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dophy/internal/rng"
)

// refWriteBits is the one-bit-per-step WriteBits loop the bytewise kernel
// replaced. The differential tests below hold the kernel to it bit for bit.
func refWriteBits(w *Writer, v uint64, n int) {
	for i := n - 1; i >= 0; i-- {
		w.WriteBit(int(v >> uint(i) & 1))
	}
}

// refReadBits is the one-bit-per-step ReadBits loop the kernel replaced.
func refReadBits(r *Reader, n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v = v<<1 | uint64(r.ReadBit())
	}
	return v
}

// bitOp is one write: a WriteBits of the low width bits of v, or (single)
// a WriteBit of v's low bit.
type bitOp struct {
	v      uint64
	width  int
	single bool
}

// parseOps reads 9-byte records: a selector byte (mod 66: 0..64 is a
// width, 65 a single WriteBit) and a little-endian value.
func parseOps(data []byte) []bitOp {
	var ops []bitOp
	for len(data) >= 9 {
		sel := int(data[0]) % 66
		v := binary.LittleEndian.Uint64(data[1:9])
		data = data[9:]
		if sel == 65 {
			ops = append(ops, bitOp{v: v & 1, width: 1, single: true})
			continue
		}
		ops = append(ops, bitOp{v: v, width: sel})
	}
	return ops
}

// checkAgainstReference writes ops through the kernel and through the
// reference loop, compares the outputs, then reads them back the same way
// (plus two reads past the end) and compares values, positions and overrun.
func checkAgainstReference(t *testing.T, ops []bitOp) {
	t.Helper()
	got, want := NewWriter(), NewWriter()
	for i, op := range ops {
		if op.single {
			got.WriteBit(int(op.v))
			want.WriteBit(int(op.v))
		} else {
			got.WriteBits(op.v, op.width)
			refWriteBits(want, op.v, op.width)
		}
		if got.Bits() != want.Bits() {
			t.Fatalf("op %d (%+v): Bits %d, reference %d", i, op, got.Bits(), want.Bits())
		}
		gb, gn := got.Partial()
		wb, wn := want.Partial()
		if gb != wb || gn != wn {
			t.Fatalf("op %d (%+v): partial %08b/%d, reference %08b/%d", i, op, gb, gn, wb, wn)
		}
	}
	data := got.Bytes()
	if !bytes.Equal(data, want.Bytes()) {
		t.Fatalf("bytes %x, reference %x", data, want.Bytes())
	}
	gr, wr := NewReader(data), NewReader(data)
	reads := append([]bitOp(nil), ops...)
	reads = append(reads, bitOp{width: 64}, bitOp{width: 13})
	for i, op := range reads {
		g, w := gr.ReadBits(op.width), refReadBits(wr, op.width)
		if g != w {
			t.Fatalf("read %d (width %d): %x, reference %x", i, op.width, g, w)
		}
		if gr.BitsRead() != wr.BitsRead() || gr.Overrun() != wr.Overrun() {
			t.Fatalf("read %d: pos %d overrun %d, reference pos %d overrun %d",
				i, gr.BitsRead(), gr.Overrun(), wr.BitsRead(), wr.Overrun())
		}
		if i < len(ops) {
			mask := ^uint64(0)
			if op.width < 64 {
				mask = 1<<uint(op.width) - 1
			}
			if g != op.v&mask {
				t.Fatalf("read %d: %x, wrote %x", i, g, op.v&mask)
			}
		}
	}
}

func TestBitKernelsMatchReference(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 300; trial++ {
		ops := make([]bitOp, 1+r.Intn(40))
		for i := range ops {
			if r.Intn(6) == 0 {
				ops[i] = bitOp{v: r.Uint64() & 1, width: 1, single: true}
				continue
			}
			ops[i] = bitOp{v: r.Uint64(), width: r.Intn(65)}
		}
		checkAgainstReference(t, ops)
	}
}

func FuzzBitIO(f *testing.F) {
	rec := func(sel byte, v uint64) []byte {
		b := []byte{sel}
		return binary.LittleEndian.AppendUint64(b, v)
	}
	f.Add(append(rec(3, 0b101), rec(64, ^uint64(0))...))
	f.Add(append(append(rec(65, 1), rec(7, 0x55)...), rec(9, 0x1ff)...))
	f.Add(append(rec(0, 42), rec(32, 0xdeadbeef)...))
	f.Add(bytes.Repeat(rec(65, 1), 12))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, parseOps(data))
	})
}
