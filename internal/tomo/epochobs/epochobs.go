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

// MinExpected is the fewest packets an origin must be expected to have sent
// in an epoch for its row to enter the tree-path system.
const MinExpected = 5

// System is one epoch's tree-path system, the input of the MINC and LSQ
// baselines. A row is an origin, in origin order, that is expected to have
// sent at least MinExpected packets and whose dominant-tree walk reaches
// the sink. A column is a link on some row's walk, numbered in the order
// the rows first encounter it. Every row through a column continues along
// the same chain of columns to the sink, so the columns form a tree rooted
// at the sink. Build rewrites every exported field, reusing their storage
// across epochs.
type System struct {
	lt *topo.LinkTable

	// Cols maps a column to its link table index.
	Cols []topo.LinkIdx
	// Next[c] is the column after c toward the sink, -1 when c's link
	// enters the sink.
	Next []int32
	// Path holds every row's columns, origin side first, flattened: row r's
	// are Path[RowStart[r]:RowStart[r+1]].
	Path     []int32
	RowStart []int32
	// Delivered[r] is row r's delivered count clamped to its expected
	// count, and Lost[r] the expected count minus Delivered[r]; both are
	// whole numbers, held as float64 for the solvers.
	Delivered []float64
	Lost      []float64

	colOf []int32        // link table index -> column, -1 when not in Cols
	walk  []topo.LinkIdx // one origin's table indices

	fit fitScratch
}

// NewSystem returns an empty system over lt. A tree walk has at most one
// link per node, and a tree at most one link per non-sink node, so the
// per-row storage, Cols, Next and the walk and fit scratch are sized from
// the node count.
func NewSystem(lt *topo.LinkTable) *System {
	n := lt.Nodes()
	s := &System{
		lt:        lt,
		Cols:      make([]topo.LinkIdx, 0, n),
		Next:      make([]int32, 0, n),
		RowStart:  make([]int32, 0, n+1),
		Delivered: make([]float64, 0, n),
		Lost:      make([]float64, 0, n),
		colOf:     make([]int32, lt.Len()),
		walk:      make([]topo.LinkIdx, 0, n),
		fit:       newFitScratch(n),
	}
	for i := range s.colOf {
		s.colOf[i] = -1
	}
	return s
}

// Rows returns the number of rows Build selected.
func (s *System) Rows() int { return len(s.Delivered) }

// Build fills the system from one epoch's observations.
func (s *System) Build(e *Epoch) {
	for _, c := range s.Cols {
		s.colOf[c] = -1
	}
	s.Cols = s.Cols[:0]
	s.Next = s.Next[:0]
	s.Path = s.Path[:0]
	s.RowStart = s.RowStart[:0]
	s.Delivered = s.Delivered[:0]
	s.Lost = s.Lost[:0]
	for origin, n := range e.Expected {
		id := topo.NodeID(origin)
		if id == topo.Sink || n < MinExpected {
			continue
		}
		walk, ok := e.AppendPathIndices(s.lt, id, s.walk[:0])
		s.walk = walk
		if !ok {
			continue
		}
		s.RowStart = append(s.RowStart, int32(len(s.Path)))
		for t, li := range walk {
			if s.colOf[li] < 0 {
				s.colOf[li] = int32(len(s.Cols))
				s.Cols = append(s.Cols, li)
				s.Next = append(s.Next, -1)
			}
			c := s.colOf[li]
			if t > 0 {
				s.Next[s.Path[len(s.Path)-1]] = c
			}
			s.Path = append(s.Path, c)
		}
		d := min(e.Delivered[origin], n)
		s.Delivered = append(s.Delivered, float64(d))
		s.Lost = append(s.Lost, float64(n-d))
	}
	s.RowStart = append(s.RowStart, int32(len(s.Path)))
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
