package experiment

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dophy/internal/rng"
	"dophy/internal/trace"
)

// smallScenario keeps tests fast.
func smallScenario(seed uint64) Scenario {
	sc := DefaultScenario()
	sc.Seed = seed
	sc.Topo = GridSpec(5)
	sc.Epochs = 2
	sc.EpochLen = 200
	return sc
}

func TestRunProducesAllSchemes(t *testing.T) {
	sc := smallScenario(1)
	sc.Schemes = Codecs | Baselines
	res := Run(sc)
	if len(res.Epochs) != 2 {
		t.Fatalf("epochs = %d", len(res.Epochs))
	}
	want := []string{SchemeDophy, SchemeDophyNA, SchemeRaw, SchemeCompact, SchemeHuffman, SchemeMINC, SchemeLSQ}
	for _, eo := range res.Epochs {
		for _, s := range want {
			if _, ok := eo.Schemes[s]; !ok {
				t.Fatalf("epoch %d missing scheme %s", eo.Epoch, s)
			}
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a := Run(smallScenario(3))
	b := Run(smallScenario(3))
	if a.MeanPacketsPerEpoch != b.MeanPacketsPerEpoch {
		t.Fatal("packet counts differ across identical runs")
	}
	accA := a.MeanAccuracy(SchemeDophy)
	accB := b.MeanAccuracy(SchemeDophy)
	if accA.MAE != accB.MAE {
		t.Fatalf("MAE differs: %v vs %v", accA.MAE, accB.MAE)
	}
	if a.MeanBitsPerPacket(SchemeDophy) != b.MeanBitsPerPacket(SchemeDophy) {
		t.Fatal("overhead differs across identical runs")
	}
}

func TestNoDecodeErrors(t *testing.T) {
	sc := smallScenario(5)
	sc.Schemes = Codecs
	res := Run(sc)
	for _, s := range []string{SchemeDophy, SchemeDophyNA, SchemeRaw, SchemeCompact, SchemeHuffman} {
		if n := res.DecodeErrorTotal(s); n != 0 {
			t.Fatalf("%s decode errors: %d", s, n)
		}
	}
}

func TestHeadlineClaims(t *testing.T) {
	// The paper's two headline results must hold on a default scenario:
	// (1) Dophy beats the traditional baselines on accuracy by a wide
	// margin, (2) arithmetic coding beats Huffman beats fixed-width.
	sc := DefaultScenario()
	sc.Seed = 11
	sc.Epochs = 2
	sc.Schemes = Codecs | Baselines
	res := Run(sc)
	dophy := res.MeanAccuracy(SchemeDophy).MAE
	minc := res.MeanAccuracy(SchemeMINC).MAE
	lsq := res.MeanAccuracy(SchemeLSQ).MAE
	if !(dophy < minc/2 && dophy < lsq/2) {
		t.Fatalf("accuracy claim failed: dophy=%.4f minc=%.4f lsq=%.4f", dophy, minc, lsq)
	}
	d := res.MeanBitsPerPacket(SchemeDophy)
	h := res.MeanBitsPerPacket(SchemeHuffman)
	c := res.MeanBitsPerPacket(SchemeCompact)
	r := res.MeanBitsPerPacket(SchemeRaw)
	if !(d < h && h < c && c < r) {
		t.Fatalf("overhead ladder failed: dophy=%.1f huffman=%.1f compact=%.1f raw=%.1f", d, h, c, r)
	}
}

func TestAggregationSavesBits(t *testing.T) {
	sc := smallScenario(7)
	sc.Schemes = Codecs
	res := Run(sc)
	agg := res.MeanBitsPerPacket(SchemeDophy)
	noagg := res.MeanBitsPerPacket(SchemeDophyNA)
	if agg >= noagg {
		t.Fatalf("aggregation did not save bits: %.2f vs %.2f", agg, noagg)
	}
}

func TestScoreAgainstTruth(t *testing.T) {
	res := Run(smallScenario(9))
	eo := res.Epochs[0]
	acc := Score(eo.Schemes[SchemeDophy], eo.Truth, res.Scenario.MinTruthAttempts)
	if acc.Links == 0 {
		t.Fatal("nothing scored")
	}
	if acc.MAE < 0 || acc.MAE > 1 || math.IsNaN(acc.MAE) {
		t.Fatalf("MAE = %v", acc.MAE)
	}
	if acc.Coverage <= 0 || acc.Coverage > 1 {
		t.Fatalf("coverage = %v", acc.Coverage)
	}
	if errs := appendErrors(nil, eo.Schemes[SchemeDophy], eo.Truth, res.Scenario.MinTruthAttempts); len(errs) != acc.Links {
		t.Fatalf("errors len %d != links %d", len(errs), acc.Links)
	}
}

// TestScoreAllocFree: scoring runs for every scheme of every epoch, on the
// facade's per-epoch path too, so it must not allocate.
func TestScoreAllocFree(t *testing.T) {
	sc := smallScenario(9)
	sc.Epochs = 1
	sc.Schemes = Baselines
	eo := Run(sc).Epochs[0]
	for _, s := range []string{SchemeDophy, SchemeMINC, SchemeLSQ} {
		se := eo.scheme(s)
		if n := testing.AllocsPerRun(100, func() { Score(se, eo.Truth, sc.MinTruthAttempts) }); n != 0 {
			t.Errorf("Score(%s) allocates %v times per call", s, n)
		}
	}
}

// TestScoreMatchesOracle recomputes every scheme's score from the raw
// truth counts and estimates with plain loops, sharing no code with
// Score. Sums run in table order on both sides, so results must be equal,
// not merely close.
func TestScoreMatchesOracle(t *testing.T) {
	oracle := func(se *SchemeEpoch, counts []trace.LinkCounts, min int64) Accuracy {
		active, links, sum := 0, 0, 0.0
		for i, c := range counts {
			if c.DataAttempts < min || c.Attempts <= 0 {
				continue
			}
			active++
			if math.IsNaN(se.Loss[i]) {
				continue
			}
			links++
			sum += math.Abs(se.Loss[i] - (1 - float64(c.Successes)/float64(c.Attempts)))
		}
		want := Accuracy{MAE: math.NaN(), Links: links}
		if links > 0 {
			want.MAE = sum / float64(links)
		}
		if active > 0 {
			want.Coverage = float64(links) / float64(active)
		}
		return want
	}
	bounded := DefaultScenario()
	bounded.Collect.QueueCap = 4
	for name, sc := range map[string]Scenario{"default": DefaultScenario(), "queue-cap-4": bounded} {
		sc.Epochs = 1
		sc.Schemes = Baselines
		eo := Run(sc).Epochs[0]
		for _, s := range []string{SchemeDophy, SchemeMINC, SchemeLSQ} {
			se := eo.scheme(s)
			got := Score(se, eo.Truth, sc.MinTruthAttempts)
			want := oracle(se, eo.Truth.Counts, sc.MinTruthAttempts)
			if got.Links == 0 {
				t.Fatalf("%s/%s: nothing scored", name, s)
			}
			if got.MAE != want.MAE || got.Links != want.Links || got.Coverage != want.Coverage {
				t.Errorf("%s/%s: Score = %+v, oracle = %+v", name, s, got, want)
			}
		}
	}
}

func TestScoreEmptyScheme(t *testing.T) {
	res := Run(smallScenario(13))
	empty := &SchemeEpoch{Name: "none"}
	acc := Score(empty, res.Epochs[0].Truth, 10)
	if !math.IsNaN(acc.MAE) || acc.Links != 0 {
		t.Fatalf("empty scheme score = %+v", acc)
	}
}

func TestTableFormat(t *testing.T) {
	tab := &Table{
		ID:      "X",
		Title:   "test",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"note"},
	}
	out := tab.Format()
	if !strings.Contains(out, "== X: test ==") || !strings.Contains(out, "333") || !strings.Contains(out, "# note") {
		t.Fatalf("format output:\n%s", out)
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "a,bb\n1,2\n") {
		t.Fatalf("csv output:\n%s", csv)
	}
}

func TestTopoSpecBuilders(t *testing.T) {
	specs := []TopoSpec{
		GridSpec(4),
		{Kind: TopoUniform, N: 20, Width: 60, Height: 60, Range: 25},
		{Kind: TopoCorridor, N: 20, Width: 100, Height: 10, Range: 25},
		{Kind: TopoChain, N: 5, Spacing: 10, Range: 11},
	}
	wantN := []int{16, 20, 20, 5}
	for i, ts := range specs {
		tp := ts.Build(rng.New(uint64(20 + i)))
		if tp.N() != wantN[i] {
			t.Fatalf("spec %d built %d nodes, want %d", i, tp.N(), wantN[i])
		}
	}
}

// TestScoreConcurrentCallers: dophy-bench runs experiments on parallel
// goroutines, and each scores its own runs, so scoring must share nothing
// between callers. Concurrent MeanAccuracy calls must agree with a
// sequential one; under -race, any shared scratch is a data race.
func TestScoreConcurrentCallers(t *testing.T) {
	sc := DefaultScenario()
	sc.Topo = GridSpec(4)
	sc.Epochs = 2
	sc.EpochLen = 150
	sc.Schemes = Baselines
	res := Run(sc)
	schemes := []string{SchemeDophy, SchemeMINC, SchemeLSQ}
	want := make([]string, len(schemes))
	for i, s := range schemes {
		want[i] = fmt.Sprint(res.MeanAccuracy(s))
	}
	got := make([]string, len(schemes))
	var wg sync.WaitGroup
	for i, s := range schemes {
		wg.Add(1)
		go func(i int, s string) {
			defer wg.Done()
			got[i] = fmt.Sprint(res.MeanAccuracy(s))
		}(i, s)
	}
	wg.Wait()
	for i, s := range schemes {
		if got[i] != want[i] {
			t.Errorf("%s scored concurrently = %s, sequentially = %s", s, got[i], want[i])
		}
	}
}

// TestRadioSpecRejectsOutOfRangeLoss: a uniform loss outside [0, 1] is a
// malformed scenario. Build must panic rather than let the radio model
// clamp it into a silent 0% or 100% loss.
func TestRadioSpecRejectsOutOfRangeLoss(t *testing.T) {
	tp := GridSpec(3).Build(rng.New(1))
	for _, loss := range []float64{-0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("UniformLoss %v: Build did not panic", loss)
				}
			}()
			RadioSpec{Kind: RadioUniformLoss, UniformLoss: loss}.Build(tp, 1)
		}()
	}
}

func TestRegistryRunsDistinctIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range All() {
		if seen[r.ID] {
			t.Fatalf("duplicate experiment id %s", r.ID)
		}
		seen[r.ID] = true
		if r.Run == nil || r.Title == "" {
			t.Fatalf("incomplete registry entry %+v", r.ID)
		}
	}
	if len(seen) != 21 {
		t.Fatalf("registry has %d entries, want 21", len(seen))
	}
}

func TestF6ValidationHolds(t *testing.T) {
	// The simulator-validation experiment must agree with the analytic
	// formulas to within sampling noise.
	tab := F6(31, RunOptions{})
	for _, row := range tab.Rows {
		var meas, ana float64
		if _, err := sscan(row[1], &meas); err != nil {
			t.Fatal(err)
		}
		if _, err := sscan(row[2], &ana); err != nil {
			t.Fatal(err)
		}
		if math.Abs(meas-ana) > 0.02 {
			t.Fatalf("delivery mismatch: %v vs %v", meas, ana)
		}
		if _, err := sscan(row[3], &meas); err != nil {
			t.Fatal(err)
		}
		if _, err := sscan(row[4], &ana); err != nil {
			t.Fatal(err)
		}
		if math.Abs(meas-ana) > 0.1 {
			t.Fatalf("mean attempts mismatch: %v vs %v", meas, ana)
		}
	}
}

func sscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}

// TestAllExperimentsProduceSaneTables runs the entire registry end to end
// (the same code paths as cmd/dophy-bench) and sanity-checks every table.
// It is the heavyweight integration test of the repository (~15s); skip it
// with -short.
func TestAllExperimentsProduceSaneTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			tab := r.Run(97, RunOptions{})
			if tab.ID != r.ID {
				t.Fatalf("table id %q != registry id %q", tab.ID, r.ID)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("experiment produced no rows")
			}
			if len(tab.Columns) == 0 {
				t.Fatal("experiment produced no columns")
			}
			for i, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Fatalf("row %d has %d cells for %d columns", i, len(row), len(tab.Columns))
				}
				for j, cell := range row {
					if cell == "" || strings.Contains(cell, "NaN") {
						t.Fatalf("row %d col %s is %q", i, tab.Columns[j], cell)
					}
				}
			}
			// Formatting must not lose content.
			out := tab.Format()
			if !strings.Contains(out, tab.ID) {
				t.Fatal("format lost the table id")
			}
		})
	}
}

// Golden regression: every experiment's full output is pinned. Because the
// whole stack is deterministic, any diff means behaviour changed — rerun
// with -update-golden to accept intentional changes.
var updateGolden = flag.Bool("update-golden", false, "rewrite experiment golden files")

func TestExperimentGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep skipped in -short mode")
	}
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			if r.ID == "T4" {
				t.Skip("T4 reports wall-clock timings; not reproducible")
			}
			got := r.Run(97, RunOptions{}).Format()
			path := filepath.Join("testdata", "golden", r.ID+".txt")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update-golden): %v", err)
			}
			if got != string(want) {
				t.Fatalf("output drifted from golden %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}
