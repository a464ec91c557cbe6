package journal

import (
	"bytes"
	"math"
	"testing"

	"dophy/internal/collect"
	"dophy/internal/core"
	"dophy/internal/experiment"
	"dophy/internal/topo"
)

// exportLines returns the first n journeys of a short run of the default
// scenario as a journal, the shape dophy-trace -export writes.
func exportLines(n int) []byte {
	sc := experiment.DefaultScenario()
	sc.EpochLen = 30
	sc.Epochs = 1
	sess := experiment.NewSession(sc)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	sess.SubscribeJourneys(func(j *collect.PacketJourney) {
		if w.Count() < int64(n) {
			w.Write(j)
		}
	})
	sess.RunEpoch()
	w.Flush()
	return buf.Bytes()
}

// FuzzReadJournal sends arbitrary bytes through the journal reader on the
// default 7×7 grid with its 8-attempt budget. The reader must never panic,
// and every delivered journey it accepts must go through Dophy's sink
// (core.Dophy.OnJourney) with no decode error and exactly its own hops
// accumulated: the reader lets through nothing the decoder cannot take
// whole. The engine runs without aggregation and with a one-sample floor,
// so every accumulated hop shows in its link's sample count.
func FuzzReadJournal(f *testing.F) {
	tp, budget := deployment()
	if budget != 8 {
		f.Fatalf("default attempt budget is %d, want 8", budget)
	}
	cfg := experiment.DefaultScenario().DophyConfig()
	cfg.AggThreshold = 0
	cfg.MinSamples = 1
	d := core.New(tp, cfg)
	lt := tp.LinkTable()
	want := make([]int64, lt.Len())

	f.Add([]byte(`{"origin":1,"seq":1,"delivered":true,"hops":[{"from":1,"to":0,"attempts":1,"observed":1},{"from":0,"to":1,"attempts":1,"observed":1},{"from":1,"to":0,"attempts":1,"observed":1}]}` + "\n"))
	f.Add([]byte(`{"origin":0,"seq":1,"delivered":false,"drop":"retries"}` + "\n"))
	f.Add([]byte(`{"origin":1,"seq":1,"delivered":true,"hops":[{"from":1,"to":0,"attempts":9,"observed":1}]}` + "\n"))
	f.Add(exportLines(4))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data), tp, budget)
		for {
			j, err := r.Read()
			if err != nil {
				return // io.EOF or the first record that does not fit
			}
			if !j.Delivered {
				continue
			}
			d.OnJourney(j)
			rep := d.EndEpoch()
			if rep.DecodeErrors != 0 {
				t.Fatalf("accepted journey %+v gave %d decode errors", j, rep.DecodeErrors)
			}
			clear(want)
			for _, h := range j.Hops {
				want[lt.Index(h.Link)]++
			}
			for i, est := range rep.Est {
				var got int64
				if !math.IsNaN(est.Loss) {
					got = est.Samples
				}
				if got != want[i] {
					t.Fatalf("accepted journey %+v: link %v accumulated %d hops, want %d",
						j, lt.Link(topo.LinkIdx(i)), got, want[i])
				}
			}
		}
	})
}
