package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// shrunk returns a copy of w with a plan of a few epochs.
func shrunk(w *workload, epochs int) *workload {
	c := *w
	c.networks, c.epochs, c.setupReps = 1, epochs, 1
	return &c
}

// runInProcess runs one untraced and one traced pass of w in this process
// and returns the run's report.
func runInProcess(t *testing.T, w *workload, seed uint64) *report {
	t.Helper()
	var untraced, traced *passResult
	var err error
	if w.sharded {
		untraced, err = shardedPass(w, seed, 0, nil)
		if err == nil {
			traced, err = shardedPass(w, seed, 0, newTraceRec(w.epochs, true))
		}
	} else {
		untraced, err = facadePass(w, seed, 0)
		if err == nil {
			traced, err = tracedFacadePass(w, seed, 0)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	rep := &report{w: w, seed: seed, untraced: []*passResult{untraced}, traced: []*passResult{traced}}
	rep.check()
	return rep
}

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestWorkloadsEmitBenchmarkMetrics is the drift test between the code and
// BENCHMARK.json: every workload, run for a few epochs, emits exactly the
// end-to-end metrics of an untraced run and the per-layer metrics of a
// traced run that the file names, with the file's units, and its traced
// pass reproduces the untraced digest.
func TestWorkloadsEmitBenchmarkMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, sw := range spec.Workloads {
		names = append(names, sw.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !equalSorted(names, have) {
		t.Fatalf("BENCHMARK.json workloads %v, code has %v", names, have)
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			rep := runInProcess(t, shrunk(w, 3), 1)
			if len(rep.problems) > 0 {
				t.Fatalf("checks failed: %v", rep.problems)
			}
			untraced := &report{w: rep.w, seed: rep.seed, untraced: rep.untraced}
			checkMetrics(t, "end_to_end", untraced.result().Metrics, spec.EndToEnd)
			checkMetrics(t, "per_layer", rep.result().Metrics, spec.PerLayer)
		})
	}
}

func checkMetrics(t *testing.T, kind string, got map[string]jsonMetric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: emitted %d metrics, BENCHMARK.json names %d", kind, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s not emitted", kind, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", kind, m.Name, g.Unit, m.Unit)
		}
	}
}

func equalSorted(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestHighPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: the helper must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		p, v  float64
		valid bool
	}{
		{n: 99},
		{n: 100, p: 90, v: 90, valid: true},
		{n: 199, p: 90, v: 180, valid: true},
		{n: 200, p: 95, v: 190, valid: true},
		{n: 1000, p: 99, v: 990, valid: true},
		{n: 10000, p: 99.9, v: 9990, valid: true},
	} {
		p, v, n, ok := highPercentile(seq(tc.n))
		if ok != tc.valid || n != tc.n || (ok && (p != tc.p || v != tc.v)) {
			t.Errorf("n=%d: got p%v=%v n=%d ok=%v, want p%v=%v ok=%v", tc.n, p, v, n, ok, tc.p, tc.v, tc.valid)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "epoch", Start: 0, End: 100, Dur: 100},
		// Two overlapping children cover [10, 60): 50, not 40+30.
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 50, Dur: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60, Dur: 30},
		// A disjoint child and an aggregate under it.
		{ID: 3, Parent: 0, Name: "sim.Run", Start: 70, End: 90, Dur: 20},
		{ID: 4, Parent: 3, Name: "radio.PRR.data", Agg: true, Count: 5, Dur: 6},
		// A child running past its parent's end is clipped to it.
		{ID: 5, Parent: 1, Name: "c", Start: 40, End: 55, Dur: 15},
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 20, 40 - 10, 30, 20 - 6, 6, 15}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestDigestRepeatable(t *testing.T) {
	w, err := findWorkload("congest-bursty")
	if err != nil {
		t.Fatal(err)
	}
	w = shrunk(w, 4)
	var digests []string
	for _, seed := range []uint64{1, 1, 2} {
		res, err := facadePass(w, seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, res.Digest)
	}
	if digests[0] != digests[1] {
		t.Errorf("same seed, digests %s and %s", digests[0], digests[1])
	}
	if digests[0] == digests[2] {
		t.Errorf("seeds 1 and 2 share digest %s", digests[0])
	}
}
