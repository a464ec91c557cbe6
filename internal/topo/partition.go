package topo

import (
	"fmt"
	"math"
	"sort"
)

// ShardID identifies a shard of a spatial partition. Like LinkIdx it is a
// defined type, so shard indices, node ids and link indices do not mix
// without an explicit conversion.
type ShardID int32

// Partition assigns every node to one of k spatial shards and returns the
// owner map, indexed by NodeID. Shards are contiguous bands along the
// layout's wider axis, so cross-shard links exist only between
// geometrically adjacent bands and the cut stays proportional to the band
// perimeter. weight[i] is node i's estimated load: the bands are cut at
// equal cumulative weight, so each shard's weight is within one node's
// maximum weight of the ideal total/k. Uniform weights give bands whose
// node counts differ by at most one. A shard may be empty when one node
// outweighs a shard's share.
//
// The assignment is a pure function of the node positions, the weights and
// k: nodes are ordered by (band-axis coordinate, other coordinate, id) and
// node i goes to shard ceil(k·W_i/W) - 1, where W_i is the cumulative
// weight through i in that order and W the total.
func (t *Topology) Partition(k int, weight []float64) []ShardID {
	n := t.N()
	if k < 1 {
		panic(fmt.Sprintf("topo: partition into %d shards", k))
	}
	if len(weight) != n {
		panic(fmt.Sprintf("topo: %d weights for %d nodes", len(weight), n))
	}
	if k > n {
		k = n
	}
	order := t.bandOrder()
	// Summing in band order makes the last cumulative weight equal total.
	total := 0.0
	for _, id := range order {
		if w := weight[id]; w >= 0 && w <= math.MaxFloat64 {
			total += w
		} else {
			panic(fmt.Sprintf("topo: node %d has weight %v", id, w))
		}
	}
	if !(total > 0) {
		panic("topo: node weights sum to zero")
	}
	owner := make([]ShardID, n)
	cum := 0.0
	for _, id := range order {
		cum += weight[id]
		s := int(math.Ceil(float64(k)*cum/total)) - 1
		owner[id] = ShardID(max(0, min(s, k-1)))
	}
	return owner
}

// bandOrder lists the nodes in Partition's band order: by coordinate along
// the layout's wider axis, then along the other axis, then by id.
func (t *Topology) bandOrder() []NodeID {
	n := t.N()
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
	return order
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
