package journal

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"dophy/internal/collect"
	"dophy/internal/experiment"
	"dophy/internal/rng"
	"dophy/internal/topo"
)

// deployment is the topology and attempt budget every test reads journals
// against: the default scenario's 7×7 grid, 8 attempts per hop.
func deployment() (*topo.Topology, int) {
	sc := experiment.DefaultScenario()
	tp, _, _ := sc.Deploy()
	return tp, sc.DophyConfig().MaxAttempts
}

// newReader reads r against the default deployment.
func newReader(r io.Reader) *Reader {
	tp, budget := deployment()
	return NewReader(r, tp, budget)
}

// sampleJourney walks 9 -> 1 -> 0 on the default grid.
func sampleJourney() *collect.PacketJourney {
	return &collect.PacketJourney{
		Origin:    9,
		Seq:       42,
		Generated: 10.5,
		Completed: 10.75,
		Delivered: true,
		Hops: []collect.Hop{
			{Link: topo.Link{From: 9, To: 1}, Attempts: 2, Observed: 2},
			{Link: topo.Link{From: 1, To: 0}, Attempts: 1, Observed: 1},
		},
	}
}

func TestRoundTripDelivered(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	orig := sampleJourney()
	if err := w.Write(orig); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := newReader(&buf)
	got, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.Origin != orig.Origin || got.Seq != orig.Seq || !got.Delivered {
		t.Fatalf("roundtrip = %+v", got)
	}
	if len(got.Hops) != 2 || got.Hops[0] != orig.Hops[0] || got.Hops[1] != orig.Hops[1] {
		t.Fatalf("hops = %+v", got.Hops)
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestRoundTripDropReasons(t *testing.T) {
	for _, reason := range []collect.DropReason{collect.DropRetries, collect.DropNoRoute, collect.DropTTL, collect.DropQueue} {
		j := sampleJourney()
		j.Delivered = false
		j.Drop = reason
		j.Hops = nil
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Write(j); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		got, err := newReader(&buf).Read()
		if err != nil {
			t.Fatal(err)
		}
		if got.Delivered || got.Drop != reason {
			t.Fatalf("drop %v roundtripped to %v", reason, got.Drop)
		}
	}
}

func TestMultipleRecords(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	const n = 50
	for i := 0; i < n; i++ {
		j := sampleJourney()
		j.Seq = int64(i)
		if err := w.Write(j); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != n {
		t.Fatalf("count = %d", w.Count())
	}
	w.Flush()
	r := newReader(&buf)
	for i := 0; i < n; i++ {
		got, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		if got.Seq != int64(i) {
			t.Fatalf("record %d has seq %d", i, got.Seq)
		}
	}
}

func TestRejectBadRecords(t *testing.T) {
	cases := map[string]string{
		"bad drop":        `{"origin":1,"seq":1,"delivered":false,"drop":"martians"}`,
		"drop delivered":  `{"origin":1,"seq":1,"delivered":false,"drop":"delivered"}`,
		"drop unknown":    `{"origin":1,"seq":1,"delivered":false,"drop":"unknown"}`,
		"neg origin":      `{"origin":-1,"seq":1,"delivered":true}`,
		"zero attempts":   `{"origin":1,"seq":1,"delivered":true,"hops":[{"from":1,"to":0,"attempts":0,"observed":0}]}`,
		"obs>attempts":    `{"origin":1,"seq":1,"delivered":true,"hops":[{"from":1,"to":0,"attempts":1,"observed":2}]}`,
		"neg node":        `{"origin":1,"seq":1,"delivered":true,"hops":[{"from":-3,"to":0,"attempts":1,"observed":1}]}`,
		"not json":        `this is not json`,
		"sink origin":     `{"origin":0,"seq":1,"delivered":false,"drop":"retries"}`,
		"past budget":     `{"origin":1,"seq":1,"delivered":true,"hops":[{"from":1,"to":0,"attempts":9,"observed":1}]}`,
		"through sink":    `{"origin":1,"seq":1,"delivered":true,"hops":[{"from":1,"to":0,"attempts":1,"observed":1},{"from":0,"to":1,"attempts":1,"observed":1},{"from":1,"to":0,"attempts":1,"observed":1}]}`,
		"not a link":      `{"origin":2,"seq":1,"delivered":true,"hops":[{"from":2,"to":0,"attempts":1,"observed":1}]}`,
		"dropped at sink": `{"origin":1,"seq":1,"delivered":false,"drop":"ttl","hops":[{"from":1,"to":0,"attempts":1,"observed":1}]}`,
		"before birth":    `{"origin":1,"seq":1,"generated":5,"completed":4,"delivered":true,"hops":[{"from":1,"to":0,"attempts":1,"observed":1}]}`,
	}
	for name, line := range cases {
		r := newReader(strings.NewReader(line + "\n"))
		if _, err := r.Read(); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), "record 1") {
			t.Errorf("%s: error %q does not name the record", name, err)
		}
	}
}

func TestJSONFieldStability(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Write(sampleJourney())
	w.Flush()
	line := buf.String()
	for _, field := range []string{`"origin"`, `"seq"`, `"generated"`, `"completed"`, `"delivered"`, `"hops"`, `"from"`, `"to"`, `"attempts"`, `"observed"`} {
		if !strings.Contains(line, field) {
			t.Fatalf("field %s missing from %s", field, line)
		}
	}
}

// Property: random valid journeys survive a write/read cycle intact. A
// journey wanders the default grid without entering the sink, and a
// delivered one then takes a shortest path there.
func TestQuickRoundTrip(t *testing.T) {
	tp, budget := deployment()
	depth := tp.HopCounts()
	f := func(seed uint64) bool {
		r := rng.New(seed)
		j := &collect.PacketJourney{
			Origin:    topo.NodeID(r.Intn(tp.N()-1) + 1),
			Seq:       int64(r.Intn(1 << 20)),
			Generated: 1,
			Completed: 2,
			Delivered: r.Bool(0.8),
		}
		if !j.Delivered {
			j.Drop = []collect.DropReason{collect.DropRetries, collect.DropNoRoute, collect.DropTTL, collect.DropQueue}[r.Intn(4)]
		}
		at := j.Origin
		step := func(next topo.NodeID) {
			att := r.Intn(budget) + 1
			j.Hops = append(j.Hops, collect.Hop{
				Link:     topo.Link{From: at, To: next},
				Attempts: att,
				Observed: r.Intn(att) + 1,
			})
			at = next
		}
		for i := r.Intn(6); i > 0; i-- {
			nb := tp.Neighbors(at)
			if next := nb[r.Intn(len(nb))]; next != topo.Sink {
				step(next)
			}
		}
		for j.Delivered && at != topo.Sink {
			for _, next := range tp.Neighbors(at) {
				if depth[next] == depth[at]-1 {
					step(next)
					break
				}
			}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if w.Write(j) != nil || w.Flush() != nil {
			return false
		}
		got, err := NewReader(&buf, tp, budget).Read()
		if err != nil {
			t.Log(err)
			return false
		}
		if got.Origin != j.Origin || got.Seq != j.Seq || got.Delivered != j.Delivered || got.Drop != j.Drop || len(got.Hops) != len(j.Hops) {
			return false
		}
		for i := range j.Hops {
			if got.Hops[i] != j.Hops[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
