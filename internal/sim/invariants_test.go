//go:build dophy_invariants

package sim

import (
	"testing"
)

// TestHeapAuditCatchesCorruption corrupts a queued slot's key directly and
// checks the audit trips on the next mutation.
func TestHeapAuditCatchesCorruption(t *testing.T) {
	e := New()
	for i := 10; i > 0; i-- {
		e.Schedule(Time(i), func() {})
	}
	// A child now sorts before the root: the prefix audit must notice.
	e.queue[1].at = 0
	defer func() {
		if recover() == nil {
			t.Fatal("heap audit missed a corrupted queue")
		}
	}()
	e.Schedule(100, func() {})
}

// TestInvariantsSurviveMixedWorkload runs a scheduling-heavy workload with
// nested scheduling so every audit path executes repeatedly (including the
// full scan every 64 mutations).
func TestInvariantsSurviveMixedWorkload(t *testing.T) {
	e := New()
	for i := 0; i < 500; i++ {
		i := i
		e.Schedule(Time(i%37), func() {
			if i%5 == 0 {
				e.After(Time(i%11), func() {})
			}
		})
	}
	e.RunAll()
	if e.Pending() != 0 {
		t.Fatalf("queue not drained: %d pending", e.Pending())
	}
}
