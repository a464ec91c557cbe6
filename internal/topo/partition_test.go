package topo

import (
	"math"
	"reflect"
	"testing"

	"dophy/internal/rng"
)

// uniform returns n unit weights, under which Partition balances node
// counts.
func uniform(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// TestPartitionBalancedAndDeterministic: each shard's weight is within one
// node's maximum weight of the ideal total/k, uniform weights cut the
// equal-count bands (runs of the band order at s*n/k), and the owner map is
// a pure function of its inputs.
func TestPartitionBalancedAndDeterministic(t *testing.T) {
	tp := Grid(15, 10, 2, 14, rng.New(3)) // 225 nodes
	n := tp.N()
	hops := tp.HopCounts()
	weight := make([]float64, n)
	total, heaviest := 0.0, 0.0
	for i := range weight {
		weight[i] = 1 + float64(hops[i]*hops[i]) // skewed: far nodes weigh more
		total += weight[i]
		heaviest = max(heaviest, weight[i])
	}
	for _, k := range []int{1, 2, 4, 8} {
		owner := tp.Partition(k, weight)
		if len(owner) != n {
			t.Fatalf("k=%d: owner covers %d nodes, want %d", k, len(owner), n)
		}
		load := make([]float64, k)
		for id, s := range owner {
			if s < 0 || int(s) >= k {
				t.Fatalf("k=%d: shard id %d out of range", k, s)
			}
			load[s] += weight[id]
		}
		for s, l := range load {
			if math.Abs(l-total/float64(k)) > heaviest {
				t.Fatalf("k=%d: shard %d weighs %v, ideal %v, heaviest node %v", k, s, l, total/float64(k), heaviest)
			}
		}
		if again := tp.Partition(k, weight); !reflect.DeepEqual(owner, again) {
			t.Fatalf("k=%d: Partition is not deterministic", k)
		}

		// Uniform weights cut the equal-count bands: the nodes at band
		// positions [s*n/k, (s+1)*n/k) form shard s.
		want := make([]ShardID, n)
		order := tp.bandOrder()
		for s := 0; s < k; s++ {
			for _, id := range order[s*n/k : (s+1)*n/k] {
				want[id] = ShardID(s)
			}
		}
		if got := tp.Partition(k, uniform(n)); !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: uniform weights do not give the equal-count bands", k)
		}
	}
}

func TestPartitionSingleShardAndClamp(t *testing.T) {
	tp := Chain(3, 10, 15)
	for _, s := range tp.Partition(1, uniform(tp.N())) {
		if s != 0 {
			t.Fatalf("k=1 assigned shard %d", s)
		}
	}
	// More shards than nodes clamps to one node per shard.
	owner := tp.Partition(10, uniform(tp.N()))
	seen := map[ShardID]bool{}
	for _, s := range owner {
		if seen[s] {
			t.Fatalf("k>n: shard %d owns two nodes", s)
		}
		seen[s] = true
	}
}

func TestPartitionBandsAreSpatial(t *testing.T) {
	// On a jitter-free wide grid, bands along X must give each shard an
	// X-interval disjoint from the others.
	tp := Grid(10, 10, 0, 14, rng.New(1))
	owner := tp.Partition(5, uniform(tp.N()))
	minX := make([]float64, 5)
	maxX := make([]float64, 5)
	for s := range minX {
		minX[s], maxX[s] = math.Inf(1), math.Inf(-1)
	}
	for id, p := range tp.Pos {
		s := owner[id]
		minX[s] = math.Min(minX[s], p.X)
		maxX[s] = math.Max(maxX[s], p.X)
	}
	for s := 1; s < 5; s++ {
		if maxX[s-1] > minX[s] {
			t.Fatalf("band %d (max %v) overlaps band %d (min %v)", s-1, maxX[s-1], s, minX[s])
		}
	}
}

func TestCrossShardClassification(t *testing.T) {
	tp := Chain(6, 10, 15) // line: only adjacent nodes linked
	owner := tp.Partition(2, uniform(tp.N()))
	cross, cut := tp.LinkTable().CrossShard(owner)
	wantCut := 0
	for i, l := range tp.Links() {
		want := owner[l.From] != owner[l.To]
		if cross[i] != want {
			t.Fatalf("link %v cross=%v, want %v", l, cross[i], want)
		}
		if want {
			wantCut++
		}
	}
	if cut != wantCut {
		t.Fatalf("cut=%d, want %d", cut, wantCut)
	}
	// A chain split into two bands has exactly one cut adjacency (2 directed links).
	if cut != 2 {
		t.Fatalf("chain cut=%d, want 2", cut)
	}
}

func TestBucketedBuildMatchesPairwise(t *testing.T) {
	r := rng.New(11)
	for _, tc := range []struct {
		name string
		pos  []Point
		rng  float64
	}{
		{"grid", Grid(23, 10, 3, 14, r).Pos, 14},
		{"uniform", Uniform(400, 180, 140, 16, r).Pos, 16},
		{"corridor", Corridor(250, 600, 25, 18, r).Pos, 18},
	} {
		got := neighborsBucketed(tc.pos, tc.rng)
		want := neighborsPairwise(tc.pos, tc.rng)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: bucketed adjacency differs from pairwise", tc.name)
		}
	}
}

func TestSparseLinkTableIndexMatchesFlat(t *testing.T) {
	tp := Grid(9, 10, 2, 14, rng.New(5))
	flat := tp.LinkTable()
	if flat.idx == nil {
		t.Fatal("small table should use the flat index")
	}
	sparse := newLinkTable(tp.neighbors)
	sparse.idx = nil
	for from := NodeID(0); int(from) < tp.N(); from++ {
		for to := NodeID(0); int(to) < tp.N(); to++ {
			l := Link{From: from, To: to}
			if got, want := sparse.Index(l), flat.Index(l); got != want {
				t.Fatalf("Index(%v): sparse=%d flat=%d", l, got, want)
			}
		}
	}
	if got := sparse.Index(Link{From: -1, To: 2}); got != NoLink {
		t.Fatalf("out-of-range Index = %d, want NoLink", got)
	}
}

func TestPartitionDegenerateCases(t *testing.T) {
	tp := Chain(5, 10, 15)
	n := tp.N()

	// More shards than nodes clamps to n: every node becomes its own
	// single-node stripe and the shard ids stay densely numbered.
	for _, k := range []int{n, n + 1, 3 * n} {
		owner := tp.Partition(k, uniform(n))
		perShard := make([]int, n)
		for id, s := range owner {
			if s < 0 || int(s) >= n {
				t.Fatalf("k=%d: node %d got shard %d, want [0,%d)", k, id, s, n)
			}
			perShard[s]++
		}
		for s, c := range perShard {
			if c != 1 {
				t.Fatalf("k=%d: shard %d owns %d nodes, want exactly 1", k, s, c)
			}
		}
	}

	// Single-node stripes on a chain cut every adjacency: the cut is the
	// whole directed link set.
	cross, cut := tp.LinkTable().CrossShard(tp.Partition(n, uniform(n)))
	if cut != len(tp.Links()) {
		t.Fatalf("n-way chain cut=%d, want all %d directed links", cut, len(tp.Links()))
	}
	for i, c := range cross {
		if !c {
			t.Fatalf("n-way chain: link %d not classified cross-shard", i)
		}
	}

	// One shard: a single band, so the cut is empty and no link is cross.
	cross, cut = tp.LinkTable().CrossShard(tp.Partition(1, uniform(tp.N())))
	if cut != 0 {
		t.Fatalf("k=1 cut=%d, want 0", cut)
	}
	for i, c := range cross {
		if c {
			t.Fatalf("k=1: link %d classified cross-shard", i)
		}
	}
}

func TestPartitionRejectsBadWeights(t *testing.T) {
	tp := Chain(3, 10, 15)
	for name, w := range map[string][]float64{
		"short":    {1, 1},
		"negative": {1, -1, 1},
		"nan":      {1, math.NaN(), 1},
		"inf":      {1, math.Inf(1), 1},
		"zero":     {0, 0, 0},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("Partition(2, %v) did not panic", w)
				}
			}()
			tp.Partition(2, w)
		})
	}
}
