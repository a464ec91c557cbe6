package minc_test

import (
	"testing"

	"dophy/internal/rng"
	"dophy/internal/tomo/epochobs"
	"dophy/internal/tomo/minc"
	"dophy/internal/topo"
)

// benchTree builds a BFS collection tree over the table's links, the shape
// a routed epoch would produce.
func benchTree(lt *topo.LinkTable) []topo.NodeID {
	n := lt.Nodes()
	tree := make([]topo.NodeID, n)
	for i := range tree {
		tree[i] = -1
	}
	visited := make([]bool, n)
	visited[topo.Sink] = true
	queue := []topo.NodeID{topo.Sink}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		lo, hi := lt.NodeSpan(u)
		for i := lo; i < hi; i++ {
			v := lt.Link(i).To
			if !visited[v] {
				visited[v] = true
				tree[v] = u
				queue = append(queue, v)
			}
		}
	}
	return tree
}

// benchEpoch is one epoch of end-to-end counts over a 196-node grid.
func benchEpoch(lt *topo.LinkTable) *epochobs.Epoch {
	n := lt.Nodes()
	e := &epochobs.Epoch{
		Delivered: make([]int64, n),
		Expected:  make([]int64, n),
		Tree:      benchTree(lt),
	}
	for i := 1; i < n; i++ {
		e.Expected[i] = 500
		e.Delivered[i] = 500 - int64(i*7%120)
	}
	return e
}

func BenchmarkEstimate200Grid(b *testing.B) {
	lt := topo.Grid(14, 10, 1.5, 14, rng.New(1)).LinkTable()
	e := benchEpoch(lt)
	est := minc.NewEstimator(lt, minc.DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.Estimate(e)
	}
}
