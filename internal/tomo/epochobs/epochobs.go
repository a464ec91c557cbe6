// Package epochobs collects the sink-side observations that *traditional*
// loss tomography consumes: per-source end-to-end delivery statistics and a
// static routing-tree snapshot per epoch.
//
// Delivery statistics are inferred exactly as a real sink would: data
// packets carry (origin, sequence number), so the expected count per origin
// in an epoch is the sequence span and the delivered count is what arrived.
//
// The tree snapshot is the *dominant* parent of each node over the epoch,
// voted from the hops of delivered packets. Real deployments get this from
// periodic topology reports; deriving it from the actual journeys is
// strictly generous to the baselines (their snapshot is as fresh as
// possible), which makes Dophy's accuracy advantage conservative.
package epochobs

import (
	"dophy/internal/collect"
	"dophy/internal/topo"
)

// Epoch is one epoch's worth of baseline-visible observations.
type Epoch struct {
	// Delivered[i] and Expected[i] are per-origin packet counts.
	Delivered []int64
	Expected  []int64
	// Tree[i] is node i's dominant parent, or -1 if never observed.
	Tree []topo.NodeID
}

// PathToSink walks the dominant tree from origin; ok is false when the walk
// hits a node without a parent or loops.
func (e *Epoch) PathToSink(origin topo.NodeID) (links []topo.Link, ok bool) {
	cur := origin
	for cur != topo.Sink {
		// A loop-free walk visits each node at most once; more links than
		// nodes means the tree has a cycle.
		if len(links) >= len(e.Tree) {
			return nil, false
		}
		p := e.Tree[cur]
		if p < 0 {
			return nil, false
		}
		links = append(links, topo.Link{From: cur, To: p})
		cur = p
	}
	return links, true
}

// AppendPathIndices appends the table indices of origin's dominant-tree
// path (origin side first) to buf and returns the extended slice. ok is
// false — with buf restored to its original length — when the walk hits a
// node without a parent, loops, or crosses a pair that is not a topology
// link.
func (e *Epoch) AppendPathIndices(lt *topo.LinkTable, origin topo.NodeID, buf []topo.LinkIdx) (_ []topo.LinkIdx, ok bool) {
	start := len(buf)
	cur := origin
	for cur != topo.Sink {
		if len(buf)-start >= len(e.Tree) {
			return buf[:start], false
		}
		p := e.Tree[cur]
		if p < 0 {
			return buf[:start], false
		}
		i := lt.Index(topo.Link{From: cur, To: p})
		if i == topo.NoLink {
			return buf[:start], false
		}
		buf = append(buf, i)
		cur = p
	}
	return buf, true
}

// Collector accumulates observations and cuts them into epochs.
type Collector struct {
	lt        *topo.LinkTable
	n         int
	delivered []int64
	maxSeq    []int64 // highest sequence seen this epoch (0 = none)
	lastSeq   []int64 // highest sequence seen in any previous epoch
	votes     []int64 // per-link parent votes, indexed by lt
}

// New builds a collector over the given link table.
func New(lt *topo.LinkTable) *Collector {
	n := lt.Nodes()
	c := &Collector{
		lt:        lt,
		n:         n,
		delivered: make([]int64, n),
		maxSeq:    make([]int64, n),
		lastSeq:   make([]int64, n),
		votes:     make([]int64, lt.Len()),
	}
	return c
}

// OnJourney ingests one completed journey. Only delivered packets reach the
// sink; drops contribute through the sequence gaps they leave.
func (c *Collector) OnJourney(j *collect.PacketJourney) {
	if !j.Delivered {
		return
	}
	o := j.Origin
	c.delivered[o]++
	if j.Seq > c.maxSeq[o] {
		c.maxSeq[o] = j.Seq
	}
	for _, h := range j.Hops {
		c.votes[c.lt.Index(h.Link)]++
	}
}

// EndEpoch snapshots and resets the per-epoch state.
func (c *Collector) EndEpoch() *Epoch {
	e := &Epoch{
		Delivered: make([]int64, c.n),
		Expected:  make([]int64, c.n),
		Tree:      make([]topo.NodeID, c.n),
	}
	copy(e.Delivered, c.delivered)
	for i := 0; i < c.n; i++ {
		e.Tree[i] = -1
		if c.maxSeq[i] > 0 {
			e.Expected[i] = c.maxSeq[i] - c.lastSeq[i]
			c.lastSeq[i] = c.maxSeq[i]
		}
		if e.Expected[i] < e.Delivered[i] {
			// Reordering across the epoch boundary: clamp.
			e.Expected[i] = e.Delivered[i]
		}
		// The node span enumerates candidate parents in ascending To order,
		// so keeping the first maximum is the deterministic tie-break.
		best := int64(0)
		lo, hi := c.lt.NodeSpan(topo.NodeID(i))
		for j := lo; j < hi; j++ {
			if v := c.votes[j]; v > best {
				best = v
				e.Tree[i] = c.lt.Link(j).To
			}
		}
		c.delivered[i] = 0
		c.maxSeq[i] = 0
	}
	clear(c.votes)
	return e
}
