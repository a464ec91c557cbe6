package topo

import (
	"fmt"
	"sort"
)

// ShardID identifies a shard of a spatial partition. Like LinkIdx it is a
// defined type, so shard indices, node ids and link indices do not mix
// without an explicit conversion.
type ShardID int32

// Partition assigns every node to one of k spatial shards and returns the
// owner map, indexed by NodeID. Shards are contiguous bands along the
// layout's wider axis with balanced node counts (sizes differ by at most
// one), so cross-shard links exist only between geometrically adjacent
// bands and the cut stays proportional to the band perimeter.
//
// The assignment is a pure function of the node positions and k: nodes are
// ordered by (band-axis coordinate, other coordinate, id) and cut into k
// equal runs. It is independent of shard count used elsewhere, so the same
// topology partitioned at different k yields nested, deterministic bands.
func (t *Topology) Partition(k int) []ShardID {
	n := t.N()
	if k < 1 {
		panic(fmt.Sprintf("topo: partition into %d shards", k))
	}
	if k > n {
		k = n
	}
	var minX, maxX, minY, maxY float64
	for i, p := range t.Pos {
		if i == 0 || p.X < minX {
			minX = p.X
		}
		if i == 0 || p.X > maxX {
			maxX = p.X
		}
		if i == 0 || p.Y < minY {
			minY = p.Y
		}
		if i == 0 || p.Y > maxY {
			maxY = p.Y
		}
	}
	alongX := maxX-minX >= maxY-minY
	order := make([]NodeID, n)
	for i := range order {
		order[i] = NodeID(i)
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := t.Pos[order[a]], t.Pos[order[b]]
		ca, cb := pa.X, pb.X
		oa, ob := pa.Y, pb.Y
		if !alongX {
			ca, cb, oa, ob = pa.Y, pb.Y, pa.X, pb.X
		}
		if ca != cb {
			return ca < cb
		}
		if oa != ob {
			return oa < ob
		}
		return order[a] < order[b]
	})
	owner := make([]ShardID, n)
	for s := 0; s < k; s++ {
		lo, hi := s*n/k, (s+1)*n/k
		for _, id := range order[lo:hi] {
			owner[id] = ShardID(s)
		}
	}
	return owner
}

// CrossShard classifies every directed link of the table against a
// Partition owner map: cross[i] is true when link i's endpoints live on
// different shards. The second result is the number of cross-shard links —
// the cut size that bounds barrier traffic in the sharded engine.
func (t *LinkTable) CrossShard(owner []ShardID) (cross []bool, cut int) {
	if len(owner) != t.n {
		panic(fmt.Sprintf("topo: owner map covers %d nodes, table has %d", len(owner), t.n))
	}
	cross = make([]bool, len(t.links))
	for i, l := range t.links {
		if owner[l.From] != owner[l.To] {
			cross[i] = true
			cut++
		}
	}
	return cross, cut
}
