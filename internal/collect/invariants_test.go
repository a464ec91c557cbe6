//go:build dophy_invariants

package collect

import (
	"strings"
	"testing"
)

// expectPanic runs f and requires a panic whose message contains want.
func expectPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one mentioning %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v; want one mentioning %q", r, want)
		}
	}()
	f()
}

func TestRecycleTwicePanics(t *testing.T) {
	nw, eng, _ := chainNetwork(t, 3, 0, nil)
	nw.Subscribe(func(j *PacketJourney) {
		nw.Recycle(j)
		nw.Recycle(j)
	})
	nw.Start()
	expectPanic(t, "recycling journey", func() { eng.Run(100) })
}

// hopRecycler recycles a journey from inside the forwarding path, while it
// is still in flight.
type hopRecycler struct{ nw *Network }

func (h hopRecycler) OnGenerate(*PacketJourney)     {}
func (h hopRecycler) OnHop(j *PacketJourney, _ Hop) { h.nw.Recycle(j) }
func (h hopRecycler) OnDeliver(*PacketJourney)      {}
func (h hopRecycler) OnDrop(*PacketJourney)         {}

func TestRecycleInFlightPanics(t *testing.T) {
	nw, eng, _ := chainNetwork(t, 3, 0, nil)
	nw.AttachAnnotator(hopRecycler{nw})
	nw.Start()
	expectPanic(t, "while in flight", func() { eng.Run(100) })
}
