// Package journal serialises packet journeys to JSON-lines streams, so
// simulation runs can be exported for offline analysis (cmd/dophy-trace)
// and replayed into tomography schemes without re-running the simulator.
package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"dophy/internal/collect"
	"dophy/internal/sim"
	"dophy/internal/topo"
)

// Record is the JSON shape of one packet journey. Field names are stable:
// external tooling may rely on them.
type Record struct {
	Origin    int     `json:"origin"`
	Seq       int64   `json:"seq"`
	Generated float64 `json:"generated"`
	Completed float64 `json:"completed"`
	Delivered bool    `json:"delivered"`
	Drop      string  `json:"drop,omitempty"`
	Hops      []Hop   `json:"hops,omitempty"`
}

// Hop is one forwarding step in a Record.
type Hop struct {
	From     int `json:"from"`
	To       int `json:"to"`
	Attempts int `json:"attempts"`
	Observed int `json:"observed"`
}

// FromJourney converts a simulator journey to its JSON shape.
func FromJourney(j *collect.PacketJourney) Record {
	r := Record{
		Origin:    int(j.Origin),
		Seq:       j.Seq,
		Generated: float64(j.Generated),
		Completed: float64(j.Completed),
		Delivered: j.Delivered,
	}
	if !j.Delivered {
		r.Drop = j.Drop.String()
	}
	for _, h := range j.Hops {
		r.Hops = append(r.Hops, Hop{
			From:     int(h.Link.From),
			To:       int(h.Link.To),
			Attempts: h.Attempts,
			Observed: h.Observed,
		})
	}
	return r
}

// ToJourney converts a Record back into a simulator journey. It checks
// only what the conversion needs, the drop reason's name; whether the
// journey could have happened is PacketJourney.Check's to say, which
// Reader applies to every record.
func (r Record) ToJourney() (*collect.PacketJourney, error) {
	j := &collect.PacketJourney{
		Origin:    topo.NodeID(r.Origin),
		Seq:       r.Seq,
		Generated: sim.Time(r.Generated),
		Completed: sim.Time(r.Completed),
		Delivered: r.Delivered,
	}
	if !r.Delivered {
		d, ok := dropReason(r.Drop)
		if !ok {
			return nil, fmt.Errorf("unknown drop reason %q", r.Drop)
		}
		j.Drop = d
	}
	for _, h := range r.Hops {
		j.Hops = append(j.Hops, collect.Hop{
			Link:     topo.Link{From: topo.NodeID(h.From), To: topo.NodeID(h.To)},
			Attempts: h.Attempts,
			Observed: h.Observed,
		})
	}
	return j, nil
}

// dropReason parses a drop name by matching it against collect's own names
// (DropReason.String), so the names live only in collect and a reason it
// adds round-trips with no edit here. It walks the reasons from DropRetries
// until String reports "unknown", which collect returns past the last one.
func dropReason(name string) (collect.DropReason, bool) {
	for d := collect.DropRetries; d.String() != "unknown"; d++ {
		if d.String() == name {
			return d, true
		}
	}
	return 0, false
}

// Writer streams journeys as JSON lines.
type Writer struct {
	bw  *bufio.Writer
	enc *json.Encoder
	n   int64
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{bw: bw, enc: json.NewEncoder(bw)}
}

// Write emits one journey.
func (w *Writer) Write(j *collect.PacketJourney) error {
	w.n++
	return w.enc.Encode(FromJourney(j))
}

// Count returns the number of journeys written.
func (w *Writer) Count() int64 { return w.n }

// Flush drains buffered output.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Reader streams journeys back from a JSON-lines stream. It is where
// journeys enter from outside the simulator, so it returns only journeys
// that pass PacketJourney.Check on its topology and attempt budget.
type Reader struct {
	dec         *json.Decoder
	tp          *topo.Topology
	maxAttempts int
	line        int
}

// NewReader wraps r, checking every record against tp under a budget of
// maxAttempts transmissions per hop.
func NewReader(r io.Reader, tp *topo.Topology, maxAttempts int) *Reader {
	return &Reader{dec: json.NewDecoder(bufio.NewReader(r)), tp: tp, maxAttempts: maxAttempts}
}

// Read returns the next journey, or io.EOF at the end of the stream. A
// record that does not parse, or that could not have happened on the
// reader's topology, is an error naming the record.
func (r *Reader) Read() (*collect.PacketJourney, error) {
	var rec Record
	if err := r.dec.Decode(&rec); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("journal: record %d: %w", r.line+1, err)
	}
	r.line++
	j, err := rec.ToJourney()
	if err != nil {
		return nil, fmt.Errorf("journal: record %d: %w", r.line, err)
	}
	if err := j.Check(r.tp, r.maxAttempts); err != nil {
		return nil, fmt.Errorf("journal: record %d does not fit the %d-node topology: %w", r.line, r.tp.N(), err)
	}
	return j, nil
}
