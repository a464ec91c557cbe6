package topo

// LinkIdx is a dense link-table index: the position of a directed link in a
// LinkTable's canonical order. It is a defined type (not a plain int), so
// assigning a NodeID to a table index, or the reverse, needs an explicit,
// reviewable conversion. Go permits indexing a slice with any integer type,
// so `loss[i]` works directly when i is a LinkIdx; the underlying int32
// matches the table's flat lookup arrays and the wire encoding of path
// records.
type LinkIdx int32

// NoLink is the LinkIdx sentinel for "not a link of this topology".
const NoLink LinkIdx = -1

// LinkTable is a stable, dense enumeration of a topology's directed links.
// Links are numbered 0..Len()-1 in canonical order — ascending From, then
// ascending To — which is exactly the order Links() returns, so any slice
// indexed by the table is already sorted for deterministic iteration. The
// estimation pipeline ([]LinkCounts, []float64, []geomle.Obs, ...), the
// radio link models and routing's neighbour tables key their per-link state
// by table index (or, for neighbours, by NeighborIndex) instead of
// map[Link] hashing; maps survive only at export boundaries.
//
// The table is built once per Topology and is immutable, so it is safe to
// share across goroutines.
type LinkTable struct {
	n     int
	links []Link    // table index -> link, canonical order
	idx   []LinkIdx // flat n*n lookup: From*n+To -> table index; nil above flatIdxMaxNodes
	off   []LinkIdx // len n+1: links[off[i]:off[i+1]] originate at node i
}

// flatIdxMaxNodes bounds the O(n^2) flat lookup array to 16 MiB of int32.
// Beyond it (the 100k-node scale tiers) Index falls back to a binary search
// of the node's sorted out-link span — same results, O(log degree) instead
// of O(1), and degree is single digits in every layout we generate.
const flatIdxMaxNodes = 2048

// newLinkTable enumerates the links of sorted adjacency lists.
func newLinkTable(neighbors [][]NodeID) *LinkTable {
	n := len(neighbors)
	total := 0
	for _, nbs := range neighbors {
		total += len(nbs)
	}
	t := &LinkTable{
		n:     n,
		links: make([]Link, 0, total),
		off:   make([]LinkIdx, n+1),
	}
	if n <= flatIdxMaxNodes {
		t.idx = make([]LinkIdx, n*n)
		for i := range t.idx {
			t.idx[i] = NoLink
		}
	}
	for id, nbs := range neighbors {
		t.off[id] = LinkIdx(len(t.links))
		for _, nb := range nbs {
			if t.idx != nil {
				t.idx[id*n+int(nb)] = LinkIdx(len(t.links))
			}
			t.links = append(t.links, Link{From: NodeID(id), To: nb})
		}
	}
	t.off[n] = LinkIdx(len(t.links))
	return t
}

// Len returns the number of directed links.
func (t *LinkTable) Len() int { return len(t.links) }

// Count returns Len() typed as the exclusive upper bound for index loops:
//
//	for i := topo.LinkIdx(0); i < lt.Count(); i++ { ... }
func (t *LinkTable) Count() LinkIdx { return LinkIdx(len(t.links)) }

// Nodes returns the number of nodes in the underlying topology.
func (t *LinkTable) Nodes() int { return t.n }

// Link returns the link at table index i (canonical order).
func (t *LinkTable) Link(i LinkIdx) Link { return t.links[i] }

// Index returns l's table index, or NoLink when l is not a link of the
// topology (including out-of-range node ids and self-links).
func (t *LinkTable) Index(l Link) LinkIdx {
	if l.From < 0 || l.To < 0 || int(l.From) >= t.n || int(l.To) >= t.n {
		return NoLink
	}
	if t.idx != nil {
		return t.idx[int(l.From)*t.n+int(l.To)]
	}
	// Binary search of the From node's out-link span, which is sorted by To.
	lo, hi := t.off[l.From], t.off[l.From+1]
	for lo < hi {
		mid := lo + (hi-lo)/2
		if t.links[mid].To < l.To {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < t.off[l.From+1] && t.links[lo].To == l.To {
		return lo
	}
	return NoLink
}

// NodeSpan returns the half-open table index range [lo, hi) of the links
// originating at id; iterating it visits id's outgoing links in ascending
// To order.
func (t *LinkTable) NodeSpan(id NodeID) (lo, hi LinkIdx) {
	return t.off[id], t.off[id+1]
}

// NeighborIndex returns the position of l.To within l.From's sorted
// neighbor list, or -1 when l is not a link — an O(1) replacement for
// scanning Neighbors(l.From). The result is a neighbor *offset*, a
// different integer domain from the table index, so it stays a plain int.
func (t *LinkTable) NeighborIndex(l Link) int {
	i := t.Index(l)
	if i == NoLink {
		return -1
	}
	return int(i - t.off[l.From])
}
