//go:build dophy_invariants

package sim

import "fmt"

// InvariantsEnabled reports whether this binary carries the runtime
// invariant checks.
const InvariantsEnabled = true

// engineInvariants audits the event queue. A violation panics: it is an
// engine bug, and the dophy_invariants build exists to fail loudly in
// tests, not to recover.
type engineInvariants struct {
	mutations uint64
}

// checkQueue audits the queue after each push or pop: the heap's order,
// each lane's FIFO order, the heap of lane heads, and that Pending counts
// exactly the heap plus the lanes. The first levels of the heap and the
// first slots of each lane (where pops happen) are checked on every
// mutation, everything every 64th, keeping the tagged build usable on
// million-event runs.
func (iv *engineInvariants) checkQueue(e *Engine) {
	iv.mutations++
	full := iv.mutations%64 == 0
	limit := len(e.queue)
	if !full && limit > 16 {
		limit = 16
	}
	for i := 1; i < limit; i++ {
		parent := (i - 1) / 2
		if e.queue[i].before(&e.queue[parent]) {
			panic(fmt.Sprintf("sim: invariant violated: heap order broken at index %d (at=%v seq=%d above at=%v seq=%d)",
				i, e.queue[parent].at, e.queue[parent].seq, e.queue[i].at, e.queue[i].seq))
		}
	}
	queued, nonEmpty := 0, 0
	for li := range e.lanes {
		l := &e.lanes[li]
		queued += l.n
		if l.n > 0 {
			nonEmpty++
		}
		limit := l.n
		if !full && limit > 16 {
			limit = 16
		}
		mask := len(l.ring) - 1
		for k := 1; k < limit; k++ {
			prev, cur := &l.ring[(l.head+k-1)&mask], &l.ring[(l.head+k)&mask]
			if cur.at < prev.at || cur.seq <= prev.seq {
				panic(fmt.Sprintf("sim: invariant violated: lane %v out of order at position %d (at=%v seq=%d after at=%v seq=%d)",
					l.d, k, cur.at, cur.seq, prev.at, prev.seq))
			}
		}
	}
	if nonEmpty != len(e.heads) {
		panic(fmt.Sprintf("sim: invariant violated: %d non-empty lanes but %d lane heads", nonEmpty, len(e.heads)))
	}
	for k := range e.heads {
		h := &e.heads[k]
		l := &e.lanes[h.lane]
		if l.n == 0 || l.ring[l.head].at != h.at || l.ring[l.head].seq != h.seq {
			panic(fmt.Sprintf("sim: invariant violated: lane-head key at=%v seq=%d does not match lane %v", h.at, h.seq, l.d))
		}
		if k > 0 && h.before(&e.heads[(k-1)/2]) {
			panic(fmt.Sprintf("sim: invariant violated: lane-head order broken at index %d", k))
		}
	}
	if got := len(e.queue) + queued; e.Pending() != got {
		panic(fmt.Sprintf("sim: invariant violated: Pending() = %d, heap plus lanes hold %d", e.Pending(), got))
	}
}
