// Package trace records ground truth while a simulation runs.
//
// Tomography schemes are scored against what the network actually did, not
// against the radio model's nominal parameters: the Recorder accumulates
// per-link transmission attempts and successes (the empirical per-attempt
// loss each estimator is trying to recover), plus delivery and routing-churn
// counters. Epoch boundaries snapshot and reset the counters so each
// estimation round is scored against its own window.
//
// Per-link state is a dense slice indexed by the topology's LinkTable; the
// map-shaped view survives only in the Link accessor for callers that hold
// a topo.Link.
package trace

import (
	"fmt"
	"math/bits"

	"dophy/internal/topo"
)

// LinkCounts accumulates per-attempt outcomes on one directed link. Data
// and beacon transmissions are both Bernoulli trials of the same link, so
// both feed the empirical loss; DataAttempts additionally marks which links
// actually carried data (the links tomography schemes can say anything
// about).
type LinkCounts struct {
	Attempts     int64 // individual radio transmissions (data + beacons)
	Successes    int64 // transmissions that were received
	DataAttempts int64 // data-packet transmissions only
}

// Recorder accumulates ground truth for the current epoch.
type Recorder struct {
	lt            *topo.LinkTable
	counts        []LinkCounts // indexed by lt
	prev          []LinkCounts // counts of the previous cut, kept for dirty diffing
	Generated     int64        // data packets created at origins
	Delivered     int64        // data packets that reached the sink
	Dropped       int64        // data packets dropped after retry exhaustion
	ParentChanges int64        // routing parent switches
}

// NewRecorder returns an empty recorder over the given link table.
func NewRecorder(lt *topo.LinkTable) *Recorder {
	return &Recorder{
		lt:     lt,
		counts: make([]LinkCounts, lt.Len()),
		prev:   make([]LinkCounts, lt.Len()),
	}
}

// Attempt records one data-packet transmission on l and its outcome.
func (r *Recorder) Attempt(l topo.Link, received bool) {
	c := r.at(l)
	c.Attempts++
	c.DataAttempts++
	if received {
		c.Successes++
	}
}

// Beacon records one beacon transmission on l and its outcome. Beacons
// sharpen the empirical loss ground truth without marking the link as
// data-active.
func (r *Recorder) Beacon(l topo.Link, received bool) {
	c := r.at(l)
	c.Attempts++
	if received {
		c.Successes++
	}
}

// at returns the live accumulator for l. The pointer aliases r.counts and
// only counts recorded before the next Cut are visible through it.
func (r *Recorder) at(l topo.Link) *LinkCounts {
	i := r.lt.Index(l)
	if i < 0 {
		panic(fmt.Sprintf("trace: %v is not a link of the topology", l))
	}
	return &r.counts[i]
}

// Link returns the accumulated counts for l (zero value if untouched or not
// a topology link).
func (r *Recorder) Link(l topo.Link) LinkCounts {
	if i := r.lt.Index(l); i >= 0 {
		return r.counts[i]
	}
	return LinkCounts{}
}

// Epoch is an immutable snapshot of one epoch's ground truth. Counts is
// dense, indexed by Table.
type Epoch struct {
	Table         *topo.LinkTable
	Counts        []LinkCounts
	Generated     int64
	Delivered     int64
	Dropped       int64
	ParentChanges int64
	// dirty is a dense bitmap over Table indices: bit i is set when link
	// i's counts differ from the previous cut of the same recorder(s). A
	// nil bitmap means no previous cut is known and every link must be
	// treated as dirty.
	dirty []uint64
}

// Link returns the counts for l (zero value if untouched or unknown).
func (e *Epoch) Link(l topo.Link) LinkCounts {
	if e.Table == nil {
		return LinkCounts{}
	}
	if i := e.Table.Index(l); i >= 0 {
		return e.Counts[i]
	}
	return LinkCounts{}
}

// TrueLoss returns link i's empirical per-attempt loss, 1 −
// Successes/Attempts over data and beacon attempts alike, and whether link
// i has ground truth: at least minDataAttempts data attempts and at least
// one attempt. These are the links a tomography scheme could plausibly
// estimate, and the only links any scheme is scored on.
func (e *Epoch) TrueLoss(i topo.LinkIdx, minDataAttempts int64) (float64, bool) {
	c := e.Counts[i]
	if c.DataAttempts < minDataAttempts || c.Attempts == 0 {
		return 0, false
	}
	return 1 - float64(c.Successes)/float64(c.Attempts), true
}

// DirtyCount returns how many links changed since the previous cut.
func (e *Epoch) DirtyCount() int {
	if e.dirty == nil {
		return len(e.Counts)
	}
	n := 0
	for _, w := range e.dirty {
		n += bits.OnesCount64(w)
	}
	return n
}

// DeliveryRatio returns delivered/generated for the epoch (1 if nothing was
// generated).
func (e *Epoch) DeliveryRatio() float64 {
	if e.Generated == 0 {
		return 1
	}
	return float64(e.Delivered) / float64(e.Generated)
}

// CutMerged snapshots and resets several recorders into one combined
// Epoch. The sharded engine gives each shard a private recorder (so the
// hot-path counters never cross goroutines); every counter is a plain sum,
// so the merge is independent of shard count and order. All recorders must
// share the same link table.
func CutMerged(recs []*Recorder) *Epoch {
	if len(recs) == 0 {
		panic("trace: CutMerged needs at least one recorder")
	}
	e := recs[0].Cut()
	for _, r := range recs[1:] {
		if r.lt != e.Table {
			panic("trace: CutMerged recorders disagree on the link table")
		}
		part := r.Cut()
		for i := range e.Counts {
			e.Counts[i].Attempts += part.Counts[i].Attempts
			e.Counts[i].Successes += part.Counts[i].Successes
			e.Counts[i].DataAttempts += part.Counts[i].DataAttempts
		}
		// The merged counts are per-shard sums, so a link is unchanged
		// exactly when every shard's contribution is unchanged: OR-ing the
		// per-shard bitmaps is sound for any partition and exact when each
		// link is recorded by a single shard (sender-side recording).
		for i := range e.dirty {
			e.dirty[i] |= part.dirty[i]
		}
		e.Generated += part.Generated
		e.Delivered += part.Delivered
		e.Dropped += part.Dropped
		e.ParentChanges += part.ParentChanges
	}
	return e
}

// Cut snapshots the current counters into an Epoch and zeroes the recorder
// in place for the next one. The dirty bitmap is diffed against the
// previous cut's counts here, while both windows are still at hand — the
// snapshot and the bitmap are the only per-epoch allocations.
func (r *Recorder) Cut() *Epoch {
	e := &Epoch{
		Table:         r.lt,
		Counts:        make([]LinkCounts, len(r.counts)),
		Generated:     r.Generated,
		Delivered:     r.Delivered,
		Dropped:       r.Dropped,
		ParentChanges: r.ParentChanges,
		dirty:         make([]uint64, (len(r.counts)+63)/64),
	}
	copy(e.Counts, r.counts)
	for i := range r.counts {
		if r.counts[i] != r.prev[i] {
			e.dirty[uint(i)>>6] |= 1 << (uint(i) & 63)
		}
	}
	copy(r.prev, r.counts)
	clear(r.counts)
	r.Generated, r.Delivered, r.Dropped, r.ParentChanges = 0, 0, 0, 0
	return e
}
