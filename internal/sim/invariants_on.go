//go:build dophy_invariants

package sim

import "fmt"

// InvariantsEnabled reports whether this binary carries the runtime
// invariant checks.
const InvariantsEnabled = true

// engineInvariants audits the event heap. A violation panics: it is an
// engine bug, and the dophy_invariants build exists to fail loudly in
// tests, not to recover.
type engineInvariants struct {
	mutations uint64
}

// checkHeap audits the queue's order after each push or pop: the first
// levels (where pops happen) on every mutation, the whole heap every 64th,
// keeping the tagged build usable on million-event runs.
func (iv *engineInvariants) checkHeap(e *Engine) {
	iv.mutations++
	limit := len(e.queue)
	if iv.mutations%64 != 0 && limit > 16 {
		limit = 16
	}
	for i := 1; i < limit; i++ {
		parent := (i - 1) / 2
		if e.queue[i].before(&e.queue[parent]) {
			panic(fmt.Sprintf("sim: invariant violated: heap order broken at index %d (at=%v seq=%d above at=%v seq=%d)",
				i, e.queue[parent].at, e.queue[parent].seq, e.queue[i].at, e.queue[i].seq))
		}
	}
}
