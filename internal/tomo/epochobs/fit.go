package epochobs

import "math"

// fitScratch is Fit's storage, owned by the System and sized once from the
// node count. A block is a set of pooled columns that forms a subtree of
// the column tree; it is named by its top column, the one nearest the
// sink, and its per-block entries sit at that column's index.
type fitScratch struct {
	block  []int32   // per column: its block's top column, -1 once pooled into the sink
	weight []float64 // per block: total weight of its rows
	sum    []float64 // per block: weighted sum of its rows' values
	mean   []float64 // per block: sum over weight, +Inf at weight 0
	final  []bool    // per block: its value is fixed
	y      []float64 // per column: the fitted value
}

func newFitScratch(n int) fitScratch {
	return fitScratch{
		block:  make([]int32, n),
		weight: make([]float64, n),
		sum:    make([]float64, n),
		mean:   make([]float64, n),
		final:  make([]bool, n),
		y:      make([]float64, n),
	}
}

// Fit returns the weighted isotonic regression of the rows' values on the
// column tree: the column values y that minimise Σ_r w_r (y[o_r] − v_r)²
// subject to y[c] ≤ y[Next[c]] for every column, and y[c] ≤ sink for a
// column that enters the sink. Here o_r is row r's origin column, its
// first, and v_r and w_r are row(Delivered[r], Lost[r]); weights must not
// be negative.
//
// The fit pools columns into blocks, each valued at the weighted mean of
// its rows' values. It repeatedly takes the active block with the largest
// mean, ties going to the lowest top column. A block whose parent block is
// final becomes final. A block whose parent is the sink, or pooled into
// it, is pooled into the sink, taking the value sink, when its mean is
// above sink, and becomes final otherwise. Any other block is pooled into
// its parent block. A pooled block's mean lies between its two parts', so
// the largest mean never rises, and every block ends at most at its
// parent's value. A block of weight 0 has mean +Inf, so a column that no
// row starts at takes its parent's value. merges counts the blocks pooled,
// at most one per column.
//
// y aliases the System's scratch and is valid until the next Build or Fit.
func (s *System) Fit(sink float64, row func(delivered, lost float64) (value, weight float64)) (y []float64, merges int) {
	n := len(s.Cols)
	f := &s.fit
	block, weight, sum, mean, final := f.block[:n], f.weight[:n], f.sum[:n], f.mean[:n], f.final[:n]
	for c := range block {
		block[c] = int32(c)
	}
	clear(weight)
	clear(sum)
	clear(final)
	for r := range s.Rows() {
		v, w := row(s.Delivered[r], s.Lost[r])
		c := s.Path[s.RowStart[r]]
		weight[c] += w
		sum[c] += w * v
	}
	for c := range mean {
		mean[c] = blockMean(sum[c], weight[c])
	}
	for {
		b := -1
		for t := range n {
			if block[t] == int32(t) && !final[t] && (b < 0 || mean[t] > mean[b]) {
				b = t
			}
		}
		if b < 0 {
			break
		}
		to := int32(-1) // the sink
		if p := s.Next[b]; p >= 0 {
			to = block[p]
		}
		if to >= 0 && final[to] {
			// Exactly, the mean cannot exceed the final parent's; this
			// keeps rounding from putting it an ulp above.
			mean[b] = min(mean[b], mean[to])
			final[b] = true
			continue
		}
		if to < 0 && mean[b] <= sink {
			final[b] = true
			continue
		}
		if to >= 0 {
			weight[to] += weight[b]
			sum[to] += sum[b]
			mean[to] = blockMean(sum[to], weight[to])
		}
		for c, t := range block {
			if t == int32(b) {
				block[c] = to
			}
		}
		merges++
	}
	y = f.y[:n]
	for c, t := range block {
		y[c] = sink
		if t >= 0 {
			y[c] = mean[t]
		}
	}
	return y, merges
}

func blockMean(sum, weight float64) float64 {
	if weight == 0 {
		return math.Inf(1)
	}
	return sum / weight
}
