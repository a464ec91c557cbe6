package experiment

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestSweepOrderAndCoverage(t *testing.T) {
	for _, w := range []int{1, 2, 4, 16} {
		var calls atomic.Int64
		out := Sweep(RunOptions{Workers: w}, 100, func(i int) int {
			calls.Add(1)
			return i * i
		})
		if calls.Load() != 100 {
			t.Fatalf("workers=%d: fn called %d times, want 100", w, calls.Load())
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", w, i, v, i*i)
			}
		}
	}
}

func TestSweepZeroPoints(t *testing.T) {
	if out := Sweep(RunOptions{}, 0, func(i int) int { return i }); len(out) != 0 {
		t.Fatalf("Sweep(0) returned %d results", len(out))
	}
}

func TestRunOptionsDefaults(t *testing.T) {
	var o RunOptions
	if got := o.SweepWorkers(); got != runtime.NumCPU() {
		t.Fatalf("RunOptions{}.SweepWorkers() = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := o.ShardCount(); got != 1 {
		t.Fatalf("RunOptions{}.ShardCount() = %d, want 1", got)
	}
	set := RunOptions{Workers: 3, Shards: 2}
	if set.SweepWorkers() != 3 || set.ShardCount() != 2 {
		t.Fatalf("explicit options not honoured: %+v", set)
	}
}

// sweepTestScenario is a deliberately small run so the determinism tests
// stay fast even under -race.
func sweepTestScenario(seed uint64) Scenario {
	sc := DefaultScenario()
	sc.Seed = seed
	sc.Topo = GridSpec(4)
	sc.Epochs = 1
	sc.EpochLen = 60
	return sc
}

// TestRunAllDeterministicAcrossWorkerCounts is the core parallel-sweep
// guarantee: fanning scenario points across N workers must produce results
// byte-identical to a sequential execution, because each point is an
// independent single-threaded simulation and output lands in input order.
func TestRunAllDeterministicAcrossWorkerCounts(t *testing.T) {
	scs := make([]Scenario, 5)
	for i := range scs {
		sc := sweepTestScenario(uint64(100 + i))
		sc.Radio = RadioSpec{Kind: RadioUniformLoss, UniformLoss: 0.05 * float64(i)}
		scs[i] = sc
	}

	summarize := func(res []*RunResult) [][3]float64 {
		out := make([][3]float64, len(res))
		for i, r := range res {
			out[i] = [3]float64{
				r.MeanBitsPerPacket(SchemeDophy),
				r.MeanAccuracy(SchemeDophy).MAE,
				float64(r.Events),
			}
		}
		return out
	}

	seq := summarize(RunAll(scs, RunOptions{Workers: 1}))

	for _, w := range []int{2, 4, 8} {
		par := summarize(RunAll(scs, RunOptions{Workers: w}))
		for i := range seq {
			for k := range seq[i] {
				sv, pv := seq[i][k], par[i][k]
				if sv != pv && !(math.IsNaN(sv) && math.IsNaN(pv)) {
					t.Fatalf("workers=%d point %d metric %d: parallel %v != sequential %v",
						w, i, k, pv, sv)
				}
			}
		}
	}
}

// TestRunnerTableDeterministic runs a full registry experiment at 1 and 4
// workers and requires the formatted table — the user-visible artifact — to
// be byte-identical.
func TestRunnerTableDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment runner; skipped in -short")
	}
	seq := F4(7, RunOptions{Workers: 1}).Format()
	par := F4(7, RunOptions{Workers: 4}).Format()
	if seq != par {
		t.Fatalf("F4 table differs between 1 and 4 workers:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}

func TestSeeds(t *testing.T) {
	seeds := Seeds(7, 5)
	if len(seeds) != 5 {
		t.Fatalf("len = %d", len(seeds))
	}
	if seeds[0] != 7 {
		t.Fatalf("seeds[0] = %d, want the base seed", seeds[0])
	}
	seen := map[uint64]bool{}
	for _, s := range seeds {
		if seen[s] {
			t.Fatalf("duplicate seed %d", s)
		}
		seen[s] = true
	}
}

func TestReplicatesMetric(t *testing.T) {
	// Synthetic results distinguished via the Events field; fn maps Events 0
	// to NaN to exercise the skip path.
	mk := func(events ...uint64) *Replicates {
		r := &Replicates{}
		for _, e := range events {
			r.Results = append(r.Results, &RunResult{Events: e})
		}
		return r
	}
	fn := func(res *RunResult) float64 {
		if res.Events == 0 {
			return math.NaN()
		}
		return float64(res.Events)
	}

	mean, ci := mk(1, 2, 3, 4).Metric(fn)
	if mean != 2.5 {
		t.Fatalf("mean = %v, want 2.5", mean)
	}
	wantCI := 1.96 * math.Sqrt(5.0/3.0) / 2
	if math.Abs(ci-wantCI) > 1e-12 {
		t.Fatalf("ci = %v, want %v", ci, wantCI)
	}

	// NaN replicates are skipped entirely.
	mean2, ci2 := mk(0, 1, 2, 3, 4, 0).Metric(fn)
	if mean2 != 2.5 || math.Abs(ci2-wantCI) > 1e-12 {
		t.Fatalf("with NaNs: mean = %v ci = %v, want 2.5 / %v", mean2, ci2, wantCI)
	}

	// Degenerate sizes.
	if m, c := mk(5).Metric(fn); m != 5 || c != 0 {
		t.Fatalf("single replicate: mean = %v ci = %v", m, c)
	}
	if m, c := mk().Metric(fn); !math.IsNaN(m) || c != 0 {
		t.Fatalf("no replicates: mean = %v ci = %v", m, c)
	}
}

func TestRunReplicates(t *testing.T) {
	sc := sweepTestScenario(1)
	seeds := Seeds(1, 3)
	rep := RunReplicates(sc, seeds, RunOptions{Workers: 4})
	if len(rep.Results) != len(seeds) {
		t.Fatalf("got %d results for %d seeds", len(rep.Results), len(seeds))
	}
	mean, ci := rep.MeanAccuracyCI(SchemeDophy)
	if math.IsNaN(mean) || mean <= 0 {
		t.Fatalf("mean MAE = %v, want a positive value", mean)
	}
	if ci < 0 {
		t.Fatalf("ci = %v, want >= 0", ci)
	}

	// Replicates are deterministic: the same seeds reproduce the same
	// aggregate regardless of scheduling.
	rep2 := RunReplicates(sc, seeds, RunOptions{Workers: 1})
	mean2, ci2 := rep2.MeanAccuracyCI(SchemeDophy)
	if mean2 != mean || ci2 != ci {
		t.Fatalf("replicates not deterministic: (%v, %v) != (%v, %v)", mean2, ci2, mean, ci)
	}

	// Different seed streams should actually vary (else the CI is a lie).
	if ci == 0 {
		t.Fatalf("ci = 0 across distinct seeds; replicate seeds not independent?")
	}
}
