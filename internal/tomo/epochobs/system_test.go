package epochobs

import (
	"fmt"
	"slices"
	"testing"

	"dophy/internal/rng"
	"dophy/internal/topo"
)

// rowLinks resolves row r's columns to links.
func rowLinks(s *System, r int) []topo.Link {
	var out []topo.Link
	for _, c := range s.Path[s.RowStart[r]:s.RowStart[r+1]] {
		out = append(out, s.lt.Link(s.Cols[c]))
	}
	return out
}

func TestSystemBuild(t *testing.T) {
	lt := chainTable(5) // table order: 0->1, 1->0, 1->2, 2->1, 2->3, 3->2, 3->4, 4->3
	chain := []topo.NodeID{-1, 0, 1, 2, 3}
	l := func(from, to topo.NodeID) topo.Link { return topo.Link{From: from, To: to} }
	cases := []struct {
		name                string
		tree                []topo.NodeID
		expected, delivered []int64
		rows                [][]topo.Link
		cols                []topo.Link // first-encounter order
		deliv, lost         []float64
	}{
		{
			name:     "sink skipped",
			tree:     chain,
			expected: []int64{50, 0, 0, 0, 0}, delivered: []int64{50, 0, 0, 0, 0},
		},
		{
			name:     "below MinExpected skipped",
			tree:     chain,
			expected: []int64{0, MinExpected - 1, MinExpected, 0, 0}, delivered: []int64{0, 4, 3, 0, 0},
			rows:  [][]topo.Link{{l(2, 1), l(1, 0)}},
			cols:  []topo.Link{l(2, 1), l(1, 0)},
			deliv: []float64{3}, lost: []float64{2},
		},
		{
			name:     "unrouted walk skipped",
			tree:     []topo.NodeID{-1, 0, -1, 2, 3},
			expected: []int64{0, 10, 10, 10, 10}, delivered: []int64{0, 9, 9, 9, 9},
			rows:  [][]topo.Link{{l(1, 0)}},
			cols:  []topo.Link{l(1, 0)},
			deliv: []float64{9}, lost: []float64{1},
		},
		{
			name:     "looping walk skipped",
			tree:     []topo.NodeID{-1, 0, 3, 2, 3},
			expected: []int64{0, 10, 10, 10, 10}, delivered: []int64{0, 9, 9, 9, 9},
			rows:  [][]topo.Link{{l(1, 0)}},
			cols:  []topo.Link{l(1, 0)},
			deliv: []float64{9}, lost: []float64{1},
		},
		{
			name:     "non-link walk skipped",
			tree:     []topo.NodeID{-1, 0, 0, 2, 3}, // 2->0 skips a hop
			expected: []int64{0, 10, 10, 10, 10}, delivered: []int64{0, 9, 9, 9, 9},
			rows:  [][]topo.Link{{l(1, 0)}},
			cols:  []topo.Link{l(1, 0)},
			deliv: []float64{9}, lost: []float64{1},
		},
		{
			name:     "first-encounter columns, clamp and lost",
			tree:     chain,
			expected: []int64{0, 10, 20, 0, 8}, delivered: []int64{0, 12, 15, 0, 0},
			rows: [][]topo.Link{
				{l(1, 0)},
				{l(2, 1), l(1, 0)},
				{l(4, 3), l(3, 2), l(2, 1), l(1, 0)},
			},
			// 4->3 precedes 3->2 here but follows it in the table.
			cols:  []topo.Link{l(1, 0), l(2, 1), l(4, 3), l(3, 2)},
			deliv: []float64{10, 15, 0}, lost: []float64{0, 5, 8},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSystem(lt)
			s.Build(&Epoch{Tree: tc.tree, Expected: tc.expected, Delivered: tc.delivered})
			if s.Rows() != len(tc.rows) || len(s.RowStart) != len(tc.rows)+1 {
				t.Fatalf("rows = %d, row starts %v; want %d rows", s.Rows(), s.RowStart, len(tc.rows))
			}
			for r, want := range tc.rows {
				if got := rowLinks(s, r); !slices.Equal(got, want) {
					t.Errorf("row %d walks %v, want %v", r, got, want)
				}
			}
			var cols []topo.Link
			for _, c := range s.Cols {
				cols = append(cols, lt.Link(c))
			}
			if !slices.Equal(cols, tc.cols) {
				t.Errorf("cols = %v, want %v", cols, tc.cols)
			}
			if !slices.Equal(s.Delivered, tc.deliv) || !slices.Equal(s.Lost, tc.lost) {
				t.Errorf("delivered %v lost %v, want %v and %v", s.Delivered, s.Lost, tc.deliv, tc.lost)
			}
		})
	}
}

// sameSystem reports how got differs from want, the link-to-column map
// included, or nil.
func sameSystem(got, want *System) error {
	switch {
	case !slices.Equal(got.Cols, want.Cols):
		return fmt.Errorf("cols %v, want %v", got.Cols, want.Cols)
	case !slices.Equal(got.Next, want.Next):
		return fmt.Errorf("next %v, want %v", got.Next, want.Next)
	case !slices.Equal(got.Path, want.Path) || !slices.Equal(got.RowStart, want.RowStart):
		return fmt.Errorf("path %v / %v, want %v / %v", got.Path, got.RowStart, want.Path, want.RowStart)
	case !slices.Equal(got.Delivered, want.Delivered) || !slices.Equal(got.Lost, want.Lost):
		return fmt.Errorf("delivered %v lost %v, want %v and %v", got.Delivered, got.Lost, want.Delivered, want.Lost)
	case !slices.Equal(got.colOf, want.colOf):
		return fmt.Errorf("column map %v, want %v", got.colOf, want.colOf)
	}
	return nil
}

// gridEpoch is an epoch over lt's breadth-first tree from the sink in which
// every origin expected 40 packets and lost a few.
func gridEpoch(lt *topo.LinkTable) *Epoch {
	n := lt.Nodes()
	e := &Epoch{Delivered: make([]int64, n), Expected: make([]int64, n), Tree: make([]topo.NodeID, n)}
	for i := range e.Tree {
		e.Tree[i] = -1
	}
	queue := []topo.NodeID{topo.Sink}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		lo, hi := lt.NodeSpan(u)
		for i := lo; i < hi; i++ {
			if v := lt.Link(i).To; v != topo.Sink && e.Tree[v] < 0 {
				e.Tree[v] = u
				queue = append(queue, v)
			}
		}
	}
	for i := 1; i < n; i++ {
		e.Expected[i] = 40
		e.Delivered[i] = 40 - int64(i%7)
	}
	return e
}

func TestSystemReuse(t *testing.T) {
	lt := topo.Grid(5, 10, 1.5, 14, rng.New(1)).LinkTable()
	full := gridEpoch(lt)
	clone := func() *Epoch {
		return &Epoch{
			Delivered: slices.Clone(full.Delivered),
			Expected:  slices.Clone(full.Expected),
			Tree:      slices.Clone(full.Tree),
		}
	}
	// A relay whose row leaves while its subtree's rows stay.
	var relay topo.NodeID
	for _, p := range full.Tree {
		if p > 0 {
			relay = p
			break
		}
	}
	quiet := clone()
	quiet.Expected[relay] = MinExpected - 1
	// The same relay loses its parent: its whole subtree leaves.
	cut := clone()
	cut.Tree[relay] = -1
	// Every origin leaves.
	empty := clone()
	clear(empty.Expected)

	s := NewSystem(lt)
	for k, e := range []*Epoch{full, quiet, full, cut, empty, quiet, cut, full} {
		s.Build(e)
		fresh := NewSystem(lt)
		fresh.Build(e)
		if err := sameSystem(s, fresh); err != nil {
			t.Fatalf("build %d: %v", k, err)
		}
	}
}

// fuzzEpoch decodes three bytes per node: a parent in [-2, n] (so walks can
// leave the table, stop, loop or cross non-links), an expected count around
// MinExpected, and a delivered count that may exceed it.
func fuzzEpoch(n int, data []byte) *Epoch {
	e := &Epoch{Delivered: make([]int64, n), Expected: make([]int64, n), Tree: make([]topo.NodeID, n)}
	for i := 0; i < n; i++ {
		var b [3]byte
		copy(b[:], data[min(3*i, len(data)):])
		e.Tree[i] = topo.NodeID(int(b[0])%(n+3)) - 2
		e.Expected[i] = int64(b[1] % 16)
		e.Delivered[i] = int64(b[2] % 20)
	}
	return e
}

// reachesSink walks e's tree from origin, one table link per step, and
// reports whether it gets to the sink in at most n steps.
func reachesSink(lt *topo.LinkTable, e *Epoch, origin topo.NodeID) bool {
	cur := origin
	for step := 0; step < lt.Nodes(); step++ {
		if cur == topo.Sink {
			return true
		}
		next := e.Tree[cur]
		if lt.Index(topo.Link{From: cur, To: next}) == topo.NoLink {
			return false
		}
		cur = next
	}
	return cur == topo.Sink
}

// checkSystem holds s, built from e, to the system's definition.
func checkSystem(t *testing.T, lt *topo.LinkTable, e *Epoch, s *System) {
	t.Helper()
	seen := make(map[topo.LinkIdx]bool)
	for _, c := range s.Cols {
		if seen[c] {
			t.Fatalf("column for link %v repeats: %v", lt.Link(c), s.Cols)
		}
		seen[c] = true
	}
	if len(s.RowStart) != s.Rows()+1 || len(s.Lost) != s.Rows() || s.RowStart[0] != 0 || s.RowStart[s.Rows()] != int32(len(s.Path)) {
		t.Fatalf("rows %d, row starts %v, lost %d, path %d", s.Rows(), s.RowStart, len(s.Lost), len(s.Path))
	}
	next := int32(0) // columns must appear in first-encounter order
	for _, c := range s.Path {
		if c > next || c < 0 {
			t.Fatalf("column %d appears before column %d", c, next)
		}
		if c == next {
			next++
		}
	}
	if int(next) != len(s.Cols) {
		t.Fatalf("%d of %d columns on a path", next, len(s.Cols))
	}
	// Every row through a column continues along the same chain of columns
	// to the sink: a column's successor, or its lack of one, is the same in
	// every row, and Next records it. The tree fit relies on it.
	succOf := make(map[int32]int32)
	for r := 0; r < s.Rows(); r++ {
		path := s.Path[s.RowStart[r]:s.RowStart[r+1]]
		for k, c := range path {
			succ := int32(-1)
			if k+1 < len(path) {
				succ = path[k+1]
			}
			if prev, ok := succOf[c]; ok && prev != succ {
				t.Fatalf("column %d is followed by column %d in row %d and by %d before", c, succ, r, prev)
			}
			succOf[c] = succ
		}
	}
	if len(s.Next) != len(s.Cols) {
		t.Fatalf("%d successors for %d columns", len(s.Next), len(s.Cols))
	}
	for c, succ := range succOf {
		if s.Next[c] != succ {
			t.Fatalf("column %d has successor %d in the rows, Next %d", c, succ, s.Next[c])
		}
	}
	var rows []topo.NodeID
	for r := 0; r < s.Rows(); r++ {
		if s.RowStart[r] >= s.RowStart[r+1] {
			t.Fatalf("row %d is empty", r)
		}
		links := rowLinks(s, r)
		origin := links[0].From
		for k, l := range links {
			if e.Tree[l.From] != l.To || (k > 0 && links[k-1].To != l.From) {
				t.Fatalf("row %d walks %v, not the tree's chain", r, links)
			}
		}
		if links[len(links)-1].To != topo.Sink {
			t.Fatalf("row %d walks %v, which stops short of the sink", r, links)
		}
		d := min(e.Delivered[origin], e.Expected[origin])
		if s.Delivered[r] != float64(d) || s.Lost[r] != float64(e.Expected[origin]-d) {
			t.Fatalf("row %d (origin %d): delivered %v lost %v from counts %d/%d",
				r, origin, s.Delivered[r], s.Lost[r], e.Delivered[origin], e.Expected[origin])
		}
		rows = append(rows, origin)
	}
	var want []topo.NodeID
	for o := 1; o < lt.Nodes(); o++ {
		if id := topo.NodeID(o); e.Expected[o] >= MinExpected && reachesSink(lt, e, id) {
			want = append(want, id)
		}
	}
	if !slices.Equal(rows, want) {
		t.Fatalf("rows are origins %v, want %v", rows, want)
	}
}

// FuzzSystemBuild builds arbitrary trees and counts over a 16-node grid:
// Build must not panic, and each result must match the system's definition
// and, when a second epoch reuses the System, a fresh System's result.
func FuzzSystemBuild(f *testing.F) {
	lt := topo.Grid(4, 10, 1.5, 14, rng.New(1)).LinkTable()
	n := lt.Nodes()
	grid := gridEpoch(lt)
	var seed []byte
	for i := 0; i < n; i++ {
		seed = append(seed, byte(grid.Tree[i]+2), byte(grid.Expected[i]%16), byte(grid.Delivered[i]))
	}
	f.Add(seed, []byte{})
	f.Add([]byte{}, seed)
	f.Add(seed, []byte{3, 9, 12, 1, 7, 7, 5, 15, 19})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ea, eb := fuzzEpoch(n, a), fuzzEpoch(n, b)
		s := NewSystem(lt)
		s.Build(ea)
		checkSystem(t, lt, ea, s)
		s.Build(eb)
		checkSystem(t, lt, eb, s)
		fresh := NewSystem(lt)
		fresh.Build(eb)
		if err := sameSystem(s, fresh); err != nil {
			t.Fatalf("reused system differs from a fresh one: %v", err)
		}
	})
}
