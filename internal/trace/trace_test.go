package trace

import (
	"math"
	"testing"

	"dophy/internal/topo"
)

// testTable builds a 4-node chain: links 0<->1, 1<->2, 2<->3.
func testTable(t *testing.T) *topo.LinkTable {
	t.Helper()
	return topo.Chain(4, 10, 10.5).LinkTable()
}

var l12 = topo.Link{From: 1, To: 2}
var l21 = topo.Link{From: 2, To: 1}

func TestAttemptAccumulates(t *testing.T) {
	r := NewRecorder(testTable(t))
	r.Attempt(l12, true)
	r.Attempt(l12, false)
	r.Attempt(l12, true)
	c := r.Link(l12)
	if c.Attempts != 3 || c.Successes != 2 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestDirectionsSeparate(t *testing.T) {
	r := NewRecorder(testTable(t))
	r.Attempt(l12, true)
	r.Attempt(l21, false)
	if r.Link(l12).Successes != 1 || r.Link(l21).Successes != 0 {
		t.Fatal("directions conflated")
	}
}

func TestUntouchedLinkZero(t *testing.T) {
	r := NewRecorder(testTable(t))
	if c := r.Link(l12); c.Attempts != 0 || c.Successes != 0 {
		t.Fatalf("untouched link = %+v", c)
	}
}

func TestNonTopologyLinkPanics(t *testing.T) {
	r := NewRecorder(testTable(t))
	defer func() {
		if recover() == nil {
			t.Fatal("recording a non-topology link did not panic")
		}
	}()
	r.Attempt(topo.Link{From: 0, To: 3}, true)
}

func TestLossComputation(t *testing.T) {
	c := LinkCounts{Attempts: 10, Successes: 7}
	loss, ok := c.Loss(5)
	if !ok || math.Abs(loss-0.3) > 1e-12 {
		t.Fatalf("loss = %v ok=%v", loss, ok)
	}
	if _, ok := c.Loss(11); ok {
		t.Fatal("loss reported ok below minAttempts")
	}
	if _, ok := (LinkCounts{}).Loss(0); ok {
		t.Fatal("zero attempts reported ok")
	}
}

func TestCutSnapshotsAndResets(t *testing.T) {
	r := NewRecorder(testTable(t))
	r.Attempt(l12, true)
	r.Generated, r.Delivered, r.Dropped, r.ParentChanges = 5, 4, 1, 2
	e := r.Cut()
	if e.Generated != 5 || e.Delivered != 4 || e.Dropped != 1 || e.ParentChanges != 2 {
		t.Fatalf("epoch = %+v", e)
	}
	if e.Link(l12).Attempts != 1 {
		t.Fatal("epoch missing link counts")
	}
	// Recorder must now be clean.
	if r.Generated != 0 || r.Link(l12).Attempts != 0 {
		t.Fatal("Cut did not reset the recorder")
	}
	// Epoch must be immune to further recording.
	r.Attempt(l12, true)
	if e.Link(l12).Attempts != 1 {
		t.Fatal("epoch snapshot aliases live counters")
	}
}

func TestTrueLossRule(t *testing.T) {
	lt := testTable(t)
	r := NewRecorder(lt)
	// l12: two data attempts and two beacons, three received.
	r.Attempt(l12, true)
	r.Attempt(l12, false)
	r.Beacon(l12, true)
	r.Beacon(l12, true)
	// l21: one data attempt.
	r.Attempt(l21, true)
	// 0->1: beacons only.
	r.Beacon(topo.Link{From: 0, To: 1}, true)
	e := r.Cut()
	idx := func(l topo.Link) topo.LinkIdx { return lt.Index(l) }

	// Beacons count toward the loss, not toward the data-attempt floor.
	if loss, ok := e.TrueLoss(idx(l12), 2); !ok || loss != 0.25 {
		t.Fatalf("l12 truth = %v, %v; want 0.25, true", loss, ok)
	}
	if _, ok := e.TrueLoss(idx(l12), 3); ok {
		t.Fatal("l12 has truth above its data-attempt count")
	}
	if _, ok := e.TrueLoss(idx(l21), 2); ok {
		t.Fatal("l21 has truth below the data-attempt floor")
	}
	if loss, ok := e.TrueLoss(idx(l21), 1); !ok || loss != 0 {
		t.Fatalf("l21 truth = %v, %v; want 0, true", loss, ok)
	}
	// A beacon-only link carried no data, and a silent link has no
	// attempts, so neither has truth even at a zero floor.
	if _, ok := e.TrueLoss(idx(topo.Link{From: 0, To: 1}), 1); ok {
		t.Fatal("beacon-only link has truth")
	}
	if _, ok := e.TrueLoss(idx(topo.Link{From: 2, To: 3}), 0); ok {
		t.Fatal("silent link has truth")
	}
}

func TestDeliveryRatio(t *testing.T) {
	e := &Epoch{Generated: 10, Delivered: 9}
	if e.DeliveryRatio() != 0.9 {
		t.Fatalf("ratio = %v", e.DeliveryRatio())
	}
	empty := &Epoch{}
	if empty.DeliveryRatio() != 1 {
		t.Fatalf("empty epoch ratio = %v", empty.DeliveryRatio())
	}
}

func TestBeaconVsDataAttempts(t *testing.T) {
	r := NewRecorder(testTable(t))
	r.Attempt(l12, true)
	r.Beacon(l12, false)
	r.Beacon(l12, true)
	c := r.Link(l12)
	if c.Attempts != 3 || c.Successes != 2 || c.DataAttempts != 1 {
		t.Fatalf("counts = %+v", c)
	}
	e := r.Cut()
	// Beacon-only links are not data-active.
	r2 := NewRecorder(testTable(t))
	r2.Beacon(l21, true)
	r2.Beacon(l21, true)
	e2 := r2.Cut()
	if _, ok := e2.TrueLoss(e2.Table.Index(l21), 1); ok {
		t.Fatal("beacon-only link reported data-active")
	}
	if _, ok := e.TrueLoss(e.Table.Index(l12), 1); !ok {
		t.Fatal("data link not reported active")
	}
}

func TestDirtyLinksAcrossCuts(t *testing.T) {
	lt := testTable(t)
	r := NewRecorder(lt)

	// First cut: no previous window, so exactly the touched link is dirty
	// (untouched links are zero in both windows).
	r.Attempt(l12, true)
	if got := r.Cut().DirtyCount(); got != 1 {
		t.Fatalf("first cut DirtyCount = %d, want 1", got)
	}

	// Second epoch repeats the first exactly: nothing is dirty.
	r.Attempt(l12, true)
	if got := r.Cut().DirtyCount(); got != 0 {
		t.Fatalf("identical epoch DirtyCount = %d, want 0", got)
	}

	// Third epoch changes l12's outcome mix and touches l21.
	r.Attempt(l12, false)
	r.Attempt(l21, true)
	if got := r.Cut().DirtyCount(); got != 2 {
		t.Fatalf("third cut DirtyCount = %d, want 2", got)
	}

	// Fourth epoch is silent: the previously-active links went quiet, which
	// is itself a change.
	if got := r.Cut().DirtyCount(); got != 2 {
		t.Fatalf("quiet epoch DirtyCount = %d, want 2", got)
	}
	if got := r.Cut().DirtyCount(); got != 0 {
		t.Fatalf("steady quiet epoch DirtyCount = %d, want 0", got)
	}
}

func TestDirtyNilBitmapConservative(t *testing.T) {
	lt := testTable(t)
	e := &Epoch{Table: lt, Counts: make([]LinkCounts, lt.Len())}
	if e.DirtyCount() != len(e.Counts) {
		t.Fatal("hand-built epoch without a bitmap must report all links dirty")
	}
}

func TestCutMergedDirtyUnion(t *testing.T) {
	lt := testTable(t)
	ra, rb := NewRecorder(lt), NewRecorder(lt)
	ra.Attempt(l12, true)
	rb.Attempt(l21, false)
	if got := CutMerged([]*Recorder{ra, rb}).DirtyCount(); got != 2 {
		t.Fatalf("merged DirtyCount = %d, want 2", got)
	}
	// A second identical round is clean in both shards, hence clean merged.
	ra.Attempt(l12, true)
	rb.Attempt(l21, false)
	if got := CutMerged([]*Recorder{ra, rb}).DirtyCount(); got != 0 {
		t.Fatalf("identical merged round DirtyCount = %d, want 0", got)
	}
	// A change in one shard alone dirties the merged link.
	ra.Attempt(l12, false)
	rb.Attempt(l21, false)
	if got := CutMerged([]*Recorder{ra, rb}).DirtyCount(); got != 1 {
		t.Fatalf("one-shard change merged DirtyCount = %d, want 1", got)
	}
}
