// Package huffman implements canonical Huffman coding over the same
// frequency tables as the arithmetic coder. It exists as the ablation
// baseline for Dophy's encoding choice: a prefix code spends at least one
// bit per symbol, while the arithmetic coder spends the entropy — which is
// far below one bit when most hops need zero retransmissions.
package huffman

import (
	"container/heap"
	"errors"
	"sort"

	"dophy/internal/coding/bitio"
)

// Code is a built Huffman code for a fixed alphabet.
type Code struct {
	lengths []int    // code length per symbol
	codes   []uint32 // canonical code bits per symbol (MSB-aligned to length)
	// decoding tables (canonical): firstCode[len], firstIndex[len], symbols
	// ordered by (length, symbol).
	maxLen     int
	firstCode  []uint32
	firstIndex []int
	symOrder   []int
}

// Build constructs a canonical Huffman code from frequencies (each >= 1).
func Build(freq []uint32) *Code {
	n := len(freq)
	if n == 0 {
		panic("huffman: empty alphabet")
	}
	lengths := make([]int, n)
	if n == 1 {
		lengths[0] = 1
	} else {
		lengths = codeLengths(freq)
	}
	return fromLengths(lengths)
}

type hnode struct {
	weight uint64
	sym    int // -1 for internal
	left   *hnode
	right  *hnode
	order  int // tie-break for determinism
}

type hheap []*hnode

func (h hheap) Len() int { return len(h) }
func (h hheap) Less(i, j int) bool {
	if h[i].weight != h[j].weight {
		return h[i].weight < h[j].weight
	}
	return h[i].order < h[j].order
}
func (h hheap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *hheap) Push(x any)   { *h = append(*h, x.(*hnode)) }
func (h *hheap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

func codeLengths(freq []uint32) []int {
	var h hheap
	order := 0
	for sym, f := range freq {
		if f == 0 {
			panic("huffman: zero frequency")
		}
		h = append(h, &hnode{weight: uint64(f), sym: sym, order: order})
		order++
	}
	heap.Init(&h)
	for h.Len() > 1 {
		a := heap.Pop(&h).(*hnode)
		b := heap.Pop(&h).(*hnode)
		heap.Push(&h, &hnode{weight: a.weight + b.weight, sym: -1, left: a, right: b, order: order})
		order++
	}
	root := h[0]
	lengths := make([]int, len(freq))
	var walk func(n *hnode, depth int)
	walk = func(n *hnode, depth int) {
		if n.sym >= 0 {
			if depth == 0 {
				depth = 1
			}
			lengths[n.sym] = depth
			return
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(root, 0)
	return lengths
}

// fromLengths assigns canonical codes from lengths.
func fromLengths(lengths []int) *Code {
	n := len(lengths)
	c := &Code{lengths: lengths, codes: make([]uint32, n)}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if lengths[order[a]] != lengths[order[b]] {
			return lengths[order[a]] < lengths[order[b]]
		}
		return order[a] < order[b]
	})
	for _, l := range lengths {
		if l > c.maxLen {
			c.maxLen = l
		}
	}
	c.firstCode = make([]uint32, c.maxLen+2)
	c.firstIndex = make([]int, c.maxLen+2)
	c.symOrder = order
	var code uint32
	idx := 0
	for length := 1; length <= c.maxLen; length++ {
		c.firstCode[length] = code
		c.firstIndex[length] = idx
		for idx < n && lengths[order[idx]] == length {
			c.codes[order[idx]] = code
			code++
			idx++
		}
		code <<= 1
	}
	return c
}

// Length returns the code length of sym in bits.
func (c *Code) Length(sym int) int { return c.lengths[sym] }

// Encode appends sym's codeword to w and returns its bit length.
func (c *Code) Encode(w *bitio.Writer, sym int) int {
	l := c.lengths[sym]
	w.WriteBits(uint64(c.codes[sym]), l)
	return l
}

// ErrCorrupt reports an undecodable bit pattern.
var ErrCorrupt = errors.New("huffman: corrupt stream")

// Decode reads one symbol from r.
func (c *Code) Decode(r *bitio.Reader) (int, error) {
	var code uint32
	for length := 1; length <= c.maxLen; length++ {
		code = code<<1 | uint32(r.ReadBit())
		// Count of codes at this length:
		next := c.firstIndex[length+1]
		if length == c.maxLen {
			next = len(c.symOrder)
		}
		count := next - c.firstIndex[length]
		if count > 0 && code >= c.firstCode[length] && code < c.firstCode[length]+uint32(count) {
			return c.symOrder[c.firstIndex[length]+int(code-c.firstCode[length])], nil
		}
	}
	return 0, ErrCorrupt
}

// ExpectedLength returns the mean code length in bits under the given
// distribution (counts).
func (c *Code) ExpectedLength(counts []uint64) float64 {
	var total, bits float64
	for sym, n := range counts {
		total += float64(n)
		bits += float64(n) * float64(c.lengths[sym])
	}
	if total == 0 {
		return 0
	}
	return bits / total
}
