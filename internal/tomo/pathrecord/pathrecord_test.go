package pathrecord

import (
	"math"
	"testing"

	"dophy/internal/collect"
	"dophy/internal/core"
	"dophy/internal/rng"
	"dophy/internal/topo"
)

func journey(path []topo.NodeID, observed []int) *collect.PacketJourney {
	j := &collect.PacketJourney{Origin: path[0], Delivered: true}
	for i := 0; i < len(path)-1; i++ {
		j.Hops = append(j.Hops, collect.Hop{
			Link:     topo.Link{From: path[i], To: path[i+1]},
			Attempts: observed[i],
			Observed: observed[i],
		})
	}
	return j
}

func TestRawOverheadIs24BitsPerHop(t *testing.T) {
	tp := topo.Chain(4, 10, 10.5)
	r := New(tp, DefaultConfig(Raw))
	r.OnJourney(journey([]topo.NodeID{3, 2, 1, 0}, []int{1, 1, 1}))
	rep := r.EndEpoch()
	if rep.Overhead.AnnotationBits != 3*24 {
		t.Fatalf("raw bits = %d, want 72", rep.Overhead.AnnotationBits)
	}
}

func TestCompactSmallerThanRaw(t *testing.T) {
	tp := topo.Chain(6, 10, 10.5)
	j := journey([]topo.NodeID{5, 4, 3, 2, 1, 0}, []int{1, 2, 1, 1, 3})
	raw := New(tp, DefaultConfig(Raw))
	compact := New(tp, DefaultConfig(Compact))
	raw.OnJourney(j)
	compact.OnJourney(j)
	rb := raw.EndEpoch().Overhead.AnnotationBits
	cb := compact.EndEpoch().Overhead.AnnotationBits
	if cb >= rb {
		t.Fatalf("compact (%d) not smaller than raw (%d)", cb, rb)
	}
}

func TestHuffmanSmallerThanCompactOnSkewedCounts(t *testing.T) {
	tp := topo.Chain(6, 10, 10.5)
	compact := New(tp, DefaultConfig(Compact))
	huff := New(tp, DefaultConfig(Huffman))
	// Train the Huffman code on one epoch of zero-heavy counts, then
	// compare the second epoch.
	feed := func(r *Recorder) int64 {
		for i := 0; i < 200; i++ {
			r.OnJourney(journey([]topo.NodeID{5, 4, 3, 2, 1, 0}, []int{1, 1, 1, 1, 1}))
		}
		return r.EndEpoch().Overhead.AnnotationBits
	}
	feed(huff) // training epoch
	feed(compact)
	hb := feed(huff)
	cb := feed(compact)
	if hb >= cb {
		t.Fatalf("huffman (%d) not smaller than compact (%d) on skewed counts", hb, cb)
	}
}

func TestEstimationMatchesGeomle(t *testing.T) {
	// Feed synthetic truncated-geometric observations and verify recovery —
	// all variants share the same estimator.
	tp := topo.Chain(3, 10, 10.5)
	r := New(tp, DefaultConfig(Compact))
	src := rng.New(7)
	const p = 0.7
	fed := 0
	for fed < 20000 {
		att := src.Geometric(p) + 1
		if att > 8 {
			continue
		}
		fed++
		r.OnJourney(journey([]topo.NodeID{1, 0}, []int{att}))
	}
	rep := r.EndEpoch()
	i := rep.Table.Index(topo.Link{From: 1, To: 0})
	if got := rep.Loss[i]; math.Abs(got-(1-p)) > 0.02 {
		t.Fatalf("estimated loss %v, want ~%v", got, 1-p)
	}
	if rep.Samples[i] != 20000 {
		t.Fatalf("samples = %d", rep.Samples[i])
	}
}

func TestDroppedIgnored(t *testing.T) {
	tp := topo.Chain(3, 10, 10.5)
	r := New(tp, DefaultConfig(Raw))
	j := journey([]topo.NodeID{2, 1, 0}, []int{1, 1})
	j.Delivered = false
	r.OnJourney(j)
	if rep := r.EndEpoch(); rep.Overhead.Packets != 0 {
		t.Fatal("dropped journey recorded")
	}
}

func TestMinSamples(t *testing.T) {
	tp := topo.Chain(3, 10, 10.5)
	cfg := DefaultConfig(Compact)
	cfg.MinSamples = 5
	r := New(tp, cfg)
	for i := 0; i < 4; i++ {
		r.OnJourney(journey([]topo.NodeID{1, 0}, []int{1}))
	}
	rep := r.EndEpoch()
	if loss := rep.Loss[rep.Table.Index(topo.Link{From: 1, To: 0})]; !math.IsNaN(loss) {
		t.Fatalf("under-sampled link reported: %v", loss)
	}
}

func TestEpochReset(t *testing.T) {
	tp := topo.Chain(3, 10, 10.5)
	r := New(tp, DefaultConfig(Compact))
	r.OnJourney(journey([]topo.NodeID{1, 0}, []int{1}))
	r.EndEpoch()
	rep := r.EndEpoch()
	if rep.Overhead.Packets != 0 || rep.Epoch != 2 {
		t.Fatalf("epoch state leaked: %+v", rep)
	}
	for i, loss := range rep.Loss {
		if !math.IsNaN(loss) || rep.Samples[i] != 0 {
			t.Fatalf("epoch state leaked: link %v loss %v from %d samples", rep.Table.Link(topo.LinkIdx(i)), loss, rep.Samples[i])
		}
	}
}

// TestOutOfRangeCountCountsError: a packet with a count past the
// recorder's MaxAttempts is a decode error, and rejecting it at its second
// hop leaves the ledger and the link observations as they were.
func TestOutOfRangeCountCountsError(t *testing.T) {
	tp := topo.Chain(3, 10, 10.5)
	cfg := DefaultConfig(Raw)
	cfg.MaxAttempts = 2
	cfg.MinSamples = 1
	r := New(tp, cfg)
	r.OnJourney(journey([]topo.NodeID{2, 1, 0}, []int{1, 5})) // attempts beyond budget
	rep := r.EndEpoch()
	if rep.DecodeErrors != 1 || rep.Overhead != (core.Overhead{}) {
		t.Fatalf("decode errors %d, overhead %+v; want 1 and nothing booked", rep.DecodeErrors, rep.Overhead)
	}
	for i, n := range rep.Samples {
		if n != 0 {
			t.Fatalf("link %v holds %d samples of a rejected packet", rep.Table.Link(topo.LinkIdx(i)), n)
		}
	}
}

func TestVariantString(t *testing.T) {
	if Raw.String() != "raw" || Compact.String() != "compact" || Huffman.String() != "huffman" {
		t.Fatal("variant names wrong")
	}
	if Variant(99).String() != "unknown" {
		t.Fatal("unknown variant name wrong")
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MaxAttempts 0 accepted")
		}
	}()
	New(topo.Chain(2, 10, 10.5), Config{MaxAttempts: 0})
}
