package epochobs

import (
	"math"
	"testing"

	"dophy/internal/rng"
	"dophy/internal/topo"
)

// completeTable is the link table of n nodes that all hear each other, so
// any tree over them is routable.
func completeTable(n int) *topo.LinkTable {
	pos := make([]topo.Point, n)
	for i := range pos {
		angle := 2 * math.Pi * float64(i) / float64(n)
		pos[i] = topo.Point{X: math.Cos(angle), Y: math.Sin(angle)}
	}
	return topo.FromPoints(pos, 3).LinkTable()
}

// randomTreeEpoch draws a tree over n nodes, each node's parent a random
// lower-numbered node. Each origin sends enough packets to enter the system
// with probability p, so a relay may have no row of its own. It delivers
// nothing, everything, more than it was expected to (a count the system
// clamps) or a random share.
func randomTreeEpoch(r *rng.Source, n int, p float64) *Epoch {
	e := &Epoch{Delivered: make([]int64, n), Expected: make([]int64, n), Tree: make([]topo.NodeID, n)}
	e.Tree[0] = -1
	for v := 1; v < n; v++ {
		e.Tree[v] = topo.NodeID(r.Intn(v))
		e.Expected[v] = int64(r.Intn(MinExpected))
		if r.Bool(p) {
			e.Expected[v] = MinExpected + int64(r.Intn(200))
		}
		switch r.Intn(4) {
		case 0:
		case 1:
			e.Delivered[v] = e.Expected[v]
		case 2:
			e.Delivered[v] = e.Expected[v] + 1 + int64(r.Intn(5))
		default:
			e.Delivered[v] = int64(r.Intn(int(e.Expected[v]) + 1))
		}
	}
	return e
}

// The two row shapes the baselines fit: a delivery ratio weighted by the
// packets expected (MINC, sink value 1), and a log delivery ratio with a
// phantom half-packet delivery when nothing arrived, at weight 1 (LSQ,
// sink value 0).
func ratioRow(d, l float64) (float64, float64) { return d / (d + l), d + l }

func logRow(d, l float64) (float64, float64) {
	dr := d / (d + l)
	if dr <= 0 {
		dr = 0.5 / (d + l)
	}
	return math.Log(dr), 1
}

// parentValue is the value the fit must not exceed at column c: its
// successor's, or the sink's.
func parentValue(s *System, y []float64, sink float64, c int) float64 {
	if k := s.Next[c]; k >= 0 {
		return y[k]
	}
	return sink
}

// checkFit holds y, the fit of s's rows under row and sink, to the
// definition of the weighted isotonic regression, rebuilt from the rows.
func checkFit(t *testing.T, s *System, row func(d, l float64) (float64, float64), sink float64, y []float64) {
	t.Helper()
	n := len(s.Cols)
	if len(y) != n {
		t.Fatalf("%d fitted values for %d columns", len(y), n)
	}
	weight := make([]float64, n) // weight of the rows that start at each column
	for r := range s.Rows() {
		_, w := row(s.Delivered[r], s.Lost[r])
		weight[s.Path[s.RowStart[r]]] += w
	}
	for c := range n {
		up := parentValue(s, y, sink, c)
		if !(y[c] <= up) {
			t.Fatalf("column %d = %v above its parent's %v", c, y[c], up)
		}
		if weight[c] == 0 && y[c] != up {
			t.Fatalf("column %d has no row but %v, its parent %v", c, y[c], up)
		}
	}

	// Blocks, read from the output: a column whose value equals its
	// parent's is pooled with it. top[c] is the top column of c's block, -1
	// when the block is pooled with the sink.
	top := make([]int, n)
	for c := range n {
		top[c] = c
		for top[c] >= 0 && y[top[c]] == parentValue(s, y, sink, top[c]) {
			top[c] = int(s.Next[top[c]])
		}
	}
	sum, wsum, scale := make([]float64, n), make([]float64, n), make([]float64, n)
	for r := range s.Rows() {
		v, w := row(s.Delivered[r], s.Lost[r])
		if b := top[s.Path[s.RowStart[r]]]; b >= 0 {
			sum[b] += w * v
			wsum[b] += w
			scale[b] += w * math.Abs(v)
		}
	}
	for b := range n {
		if top[b] == b && math.Abs(y[b]*wsum[b]-sum[b]) > 1e-12*scale[b] {
			t.Fatalf("block at column %d = %v, its rows' weighted mean %v", b, y[b], sum[b]/wsum[b])
		}
	}

	// KKT in the variables x_c = y[next] − y[c] ≥ 0: the gradient entry of
	// column c is minus the weighted residual over the rows through c. It is
	// zero where x_c > 0 and not negative where x_c = 0.
	resid, scaleC := make([]float64, n), make([]float64, n)
	for r := range s.Rows() {
		v, w := row(s.Delivered[r], s.Lost[r])
		res := w * (y[s.Path[s.RowStart[r]]] - v)
		for _, c := range s.Path[s.RowStart[r]:s.RowStart[r+1]] {
			resid[c] += res
			scaleC[c] += w * (math.Abs(v) + math.Abs(y[c]))
		}
	}
	for c := range n {
		tol := 1e-12 * scaleC[c]
		if resid[c] > tol || (y[c] < parentValue(s, y, sink, c) && resid[c] < -tol) {
			t.Fatalf("column %d (x = %v): weighted residual %v over its rows breaks KKT",
				c, parentValue(s, y, sink, c)-y[c], resid[c])
		}
	}
}

func TestFitPools(t *testing.T) {
	lt := chainTable(4)
	chain := []topo.NodeID{-1, 0, 1, 2}
	cases := []struct {
		name                string
		expected, delivered []int64
		sink                float64
		want                []float64 // per column, origin 1's link first
		merges              int
	}{
		{
			name:     "isotonic data stays",
			expected: []int64{0, 100, 100, 100}, delivered: []int64{0, 90, 80, 70},
			sink: 1, want: []float64{0.9, 0.8, 0.7},
		},
		{
			name:     "a child above its parent pools with it",
			expected: []int64{0, 100, 100, 100}, delivered: []int64{0, 80, 90, 70},
			sink: 1, want: []float64{0.85, 0.85, 0.7}, merges: 1,
		},
		{
			name:     "a rowless relay takes its parent's value",
			expected: []int64{0, 100, 0, 100}, delivered: []int64{0, 90, 0, 70},
			sink: 1, want: []float64{0.9, 0.7, 0.9}, merges: 1, // columns 1->0, 3->2, 2->1
		},
		{
			name:     "a block above the sink pools with it",
			expected: []int64{0, 100, 100, 100}, delivered: []int64{0, 90, 80, 20},
			sink: 0.5, want: []float64{0.5, 0.5, 0.2}, merges: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSystem(lt)
			s.Build(&Epoch{Delivered: tc.delivered, Expected: tc.expected, Tree: chain})
			y, merges := s.Fit(tc.sink, ratioRow)
			for c, want := range tc.want {
				if math.Abs(y[c]-want) > 1e-15 {
					t.Fatalf("fit %v, want %v", y, tc.want)
				}
			}
			if merges != tc.merges {
				t.Fatalf("%d merges, want %d", merges, tc.merges)
			}
			checkFit(t, s, ratioRow, tc.sink, y)
		})
	}
}

// FuzzTreeFit fits random trees, with rowless relays and zero, full and
// clamped deliveries, under both baselines' row shapes and a sink value
// that may sit below the data. Every fit must be the weighted isotonic
// regression (checkFit), and a System reused from another epoch must give
// the fresh System's fit bit for bit.
func FuzzTreeFit(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint8(200), uint8(0), int8(0))
	f.Add(uint64(2), uint8(40), uint8(120), uint8(1), int8(0))
	f.Add(uint64(3), uint8(1), uint8(255), uint8(0), int8(-20))
	f.Add(uint64(4), uint8(30), uint8(60), uint8(1), int8(-60))
	f.Add(uint64(5), uint8(7), uint8(0), uint8(0), int8(40))
	f.Fuzz(func(t *testing.T, seed uint64, size, density, shape uint8, shift int8) {
		n := int(size)%48 + 2
		r := rng.New(seed)
		lt := completeTable(n)
		row, sink := ratioRow, 1.0
		if shape%2 == 1 {
			row, sink = logRow, 0
		}
		sink += float64(shift) / 32
		p := float64(density) / 255
		first, e := randomTreeEpoch(r, n, p), randomTreeEpoch(r, n, p)

		s := NewSystem(lt)
		s.Build(first)
		y, _ := s.Fit(sink, row)
		checkFit(t, s, row, sink, y)
		s.Build(e)
		y, merges := s.Fit(sink, row)
		checkFit(t, s, row, sink, y)
		if merges > len(s.Cols) {
			t.Fatalf("%d merges over %d columns", merges, len(s.Cols))
		}

		fresh := NewSystem(lt)
		fresh.Build(e)
		want, wantMerges := fresh.Fit(sink, row)
		if merges != wantMerges {
			t.Fatalf("reused system merged %d blocks, fresh %d", merges, wantMerges)
		}
		for c := range want {
			if math.Float64bits(y[c]) != math.Float64bits(want[c]) {
				t.Fatalf("reused system fits column %d at %v, fresh %v", c, y[c], want[c])
			}
		}
	})
}
