//go:build dophy_invariants

package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestHeapAuditCatchesCorruption corrupts queued state directly, in the
// heap, in a lane and in the lane bookkeeping, and checks the audit trips
// on the next mutation.
func TestHeapAuditCatchesCorruption(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(e *Engine)
	}{
		// A child now sorts before the root: the prefix audit must notice.
		{"heap order", func(e *Engine) { e.queue[1].at = 0 }},
		// The lane's second event now sorts before its head.
		{"lane order", func(e *Engine) {
			l := &e.lanes[0]
			l.ring[(l.head+1)&(len(l.ring)-1)].at = 0.5
		}},
		// Pending would count an event no part of the queue holds.
		{"lane count", func(e *Engine) { e.inLanes++ }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			e.Lane(1)
			for i := 10; i > 0; i-- {
				e.Schedule(Time(i)+0.5, func() {})
				e.After(1, func() {})
			}
			tc.corrupt(e)
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("queue audit missed the corruption")
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, "invariant violated") {
					t.Fatalf("panic %q is not the audit's", msg)
				}
			}()
			e.Schedule(100, func() {})
		})
	}
}

// TestInvariantsSurviveMixedWorkload runs a scheduling-heavy workload with
// nested scheduling, some of it into lanes, so every audit path executes
// repeatedly (including the full scan every 64 mutations).
func TestInvariantsSurviveMixedWorkload(t *testing.T) {
	e := New()
	e.Lane(2)
	e.Lane(5)
	for i := 0; i < 500; i++ {
		i := i
		e.Schedule(Time(i%37), func() {
			if i%5 == 0 {
				e.After(Time(i%11), func() {})
			}
		})
	}
	e.Run(Time(math.Inf(1)))
	if e.Pending() != 0 {
		t.Fatalf("queue not drained: %d pending", e.Pending())
	}
}
