// Package model provides the frequency models driving the arithmetic coder:
// static tables (shared between encoder nodes and the sink decoder),
// symbol aggregation (Dophy optimisation 1) and
// quantisation + serialisation of tables for periodic dissemination (Dophy
// optimisation 2), plus entropy utilities used to reason about overhead.
package model

import (
	"fmt"
	"math"
	"sort"
)

// Static is an immutable frequency table: the shared model the arithmetic
// coder codes every symbol under.
type Static struct {
	freq []uint32
	cum  []uint32 // cum[i] = sum of freq[:i]; len = n+1
}

// NewStatic builds a static model. Every frequency must be >= 1 so that all
// symbols stay codable (NewStatic panics otherwise), and the total must not
// exceed arith.MaxTotal so the coder's 64-bit range arithmetic cannot
// overflow or starve intervals (Encode panics otherwise; callers use
// Quantize to guarantee both).
func NewStatic(freq []uint32) *Static {
	if len(freq) == 0 {
		panic("model: empty frequency table")
	}
	cum := make([]uint32, len(freq)+1)
	for i, f := range freq {
		if f == 0 {
			panic(fmt.Sprintf("model: symbol %d has zero frequency", i))
		}
		cum[i+1] = cum[i] + f
	}
	cp := make([]uint32, len(freq))
	copy(cp, freq)
	return &Static{freq: cp, cum: cum}
}

// Uniform returns a static model with equal mass on n symbols.
func Uniform(n int) *Static {
	if n < 1 {
		panic("model: uniform model needs n >= 1")
	}
	freq := make([]uint32, n)
	for i := range freq {
		freq[i] = 1
	}
	return NewStatic(freq)
}

// NumSymbols returns the alphabet size.
func (s *Static) NumSymbols() int { return len(s.freq) }

// Range returns the cumulative interval [low, high) of sym and the total:
// 0 <= low < high <= total.
func (s *Static) Range(sym int) (low, high, total uint32) {
	return s.cum[sym], s.cum[sym+1], s.cum[len(s.freq)]
}

// Find returns the symbol whose interval contains the cumulative value v
// in [0, total), along with its interval. It binary-searches, open-coded
// rather than sort.Search: the predicate closure would allocate on every
// decoded symbol.
func (s *Static) Find(v uint32) (sym int, low, high, total uint32) {
	i := findCum(s.cum, len(s.freq), v)
	return i, s.cum[i], s.cum[i+1], s.cum[len(s.freq)]
}

// findCum returns the smallest i in [0, n) with cum[i+1] > v, assuming
// cum is non-decreasing with cum[n] > v (total mass exceeds any code
// value the caller probes).
func findCum(cum []uint32, n int, v uint32) int {
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cum[mid+1] > v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Aggregator implements Dophy optimisation 1: retransmission counts at or
// above Threshold collapse into one tail symbol. A packet's exact count is
// then censored, which the estimator accounts for.
type Aggregator struct {
	// Threshold is the first aggregated count; counts 0..Threshold-1 keep
	// dedicated symbols. Threshold <= 0 means no aggregation.
	Threshold int
	// MaxCount is the largest possible raw count (MAC attempts - 1).
	MaxCount int
}

// NumSymbols returns the size of the aggregated alphabet.
func (g Aggregator) NumSymbols() int {
	if g.Threshold <= 0 || g.Threshold > g.MaxCount {
		return g.MaxCount + 1
	}
	return g.Threshold + 1
}

// Map converts a raw retransmission count to a symbol.
func (g Aggregator) Map(count int) int {
	if count < 0 || count > g.MaxCount {
		panic(fmt.Sprintf("model: count %d outside [0,%d]", count, g.MaxCount))
	}
	if g.Threshold <= 0 || g.Threshold > g.MaxCount {
		return count
	}
	if count >= g.Threshold {
		return g.Threshold
	}
	return count
}

// IsTail reports whether sym is the aggregated (censored) tail symbol.
func (g Aggregator) IsTail(sym int) bool {
	return g.Threshold > 0 && g.Threshold <= g.MaxCount && sym == g.Threshold
}

// Quantize converts observed symbol counts into a frequency table with the
// given total mass (>= alphabet size), every entry >= 1 — the shape required
// by the coder and compact to disseminate. Largest-remainder apportionment
// keeps the quantised distribution close to the empirical one.
func Quantize(counts []uint64, total uint32) []uint32 {
	n := len(counts)
	if n == 0 {
		panic("model: quantize of empty counts")
	}
	if total < uint32(n) {
		panic("model: total below alphabet size")
	}
	var sum uint64
	for _, c := range counts {
		sum += c
	}
	out := make([]uint32, n)
	if sum == 0 {
		// No observations: uniform.
		base := total / uint32(n)
		rem := total % uint32(n)
		for i := range out {
			out[i] = base
			if uint32(i) < rem {
				out[i]++
			}
		}
		return out
	}
	// Reserve 1 per symbol, apportion the rest proportionally.
	spare := total - uint32(n)
	type frac struct {
		idx int
		rem float64
	}
	fracs := make([]frac, n)
	var used uint32
	for i, c := range counts {
		exact := float64(c) / float64(sum) * float64(spare)
		fl := uint32(exact)
		out[i] = 1 + fl
		used += fl
		fracs[i] = frac{i, exact - float64(fl)}
	}
	sort.Slice(fracs, func(a, b int) bool {
		if fracs[a].rem != fracs[b].rem {
			return fracs[a].rem > fracs[b].rem
		}
		return fracs[a].idx < fracs[b].idx
	})
	for k := uint32(0); k < spare-used; k++ {
		out[fracs[k%uint32(n)].idx]++
	}
	return out
}

// GeometricPrior is the deployment-time count model every recording scheme
// starts from: n symbols with geometrically decaying mass (most links need
// few retransmissions), quantised to total.
func GeometricPrior(n int, total uint32) []uint32 {
	counts := make([]uint64, n)
	w := uint64(1) << uint(n)
	for i := range counts {
		counts[i] = w
		w = (w + 1) / 2
	}
	return Quantize(counts, total)
}

// BitsFor returns the width of a fixed-width field that can hold n
// distinct values: ceil(log2 n), with a 1-bit floor.
func BitsFor(n int) int {
	b := 1
	for (1 << uint(b)) < n {
		b++
	}
	return b
}

// TableBits is the dissemination cost of one quantised table in bits:
// each frequency is sent as a fixed-width field sized for the total.
func TableBits(n int, total uint32) int {
	return n * BitsFor(int(total))
}

// Serialize packs a frequency table into bytes (fixed width per entry).
func Serialize(freq []uint32, total uint32) []byte {
	width := BitsFor(int(total))
	bits := len(freq) * width
	out := make([]byte, (bits+7)/8)
	pos := 0
	for _, f := range freq {
		for i := width - 1; i >= 0; i-- {
			if f>>uint(i)&1 == 1 {
				out[pos>>3] |= 1 << uint(7-pos&7)
			}
			pos++
		}
	}
	return out
}

// Deserialize unpacks n frequencies serialised with Serialize.
func Deserialize(data []byte, n int, total uint32) ([]uint32, error) {
	width := BitsFor(int(total))
	if len(data)*8 < n*width {
		return nil, fmt.Errorf("model: table data too short: %d bytes for %d x %d bits", len(data), n, width)
	}
	out := make([]uint32, n)
	pos := 0
	for i := range out {
		var v uint32
		for b := 0; b < width; b++ {
			v = v<<1 | uint32(data[pos>>3]>>uint(7-pos&7)&1)
			pos++
		}
		out[i] = v
	}
	return out, nil
}

// Entropy returns the Shannon entropy (bits/symbol) of the distribution
// induced by freq.
func Entropy(freq []uint32) float64 {
	var total float64
	for _, f := range freq {
		total += float64(f)
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, f := range freq {
		if f == 0 {
			continue
		}
		p := float64(f) / total
		h -= p * math.Log2(p)
	}
	return h
}

// CrossEntropy returns the expected bits/symbol when data distributed as p
// (counts) is coded with a model shaped like q (freqs). This is the exact
// asymptotic in-packet cost of coding with a stale model — the quantity
// Dophy's periodic model update (optimisation 2) minimises.
func CrossEntropy(p []uint64, q []uint32) float64 {
	if len(p) != len(q) {
		panic("model: cross-entropy length mismatch")
	}
	var pt float64
	for _, c := range p {
		pt += float64(c)
	}
	var qt float64
	for _, f := range q {
		qt += float64(f)
	}
	if pt == 0 || qt == 0 {
		return 0
	}
	h := 0.0
	for i := range p {
		if p[i] == 0 {
			continue
		}
		pi := float64(p[i]) / pt
		qi := float64(q[i]) / qt
		h -= pi * math.Log2(qi)
	}
	return h
}
