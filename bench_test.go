// Benchmarks over reduced-scale variants of the reproduced evaluation's
// workloads (DESIGN.md experiment index), so `go test -bench=.` finishes in
// minutes. The full-scale tables come from `go run ./cmd/dophy-bench`, and
// performance of record (wall time, events/sec, allocations and peak RSS
// per workload) from the benchmark in bench/ (`bash bench/run.sh`).
//
// Fixed seeds keep the work per iteration identical across runs, and every
// benchmark calls b.ReportAllocs() so allocs/op regressions in the
// simulator hot paths are visible without -benchmem.
//
// CI note: these benchmarks are compiled (but skipped) by plain `go test`;
// a smoke run uses `-bench=BenchmarkExperimentRun -benchtime=1x`. None of them
// need a testing.Short() guard because they do no work unless -bench selects
// them.
package dophy

import (
	"testing"

	"dophy/internal/experiment"
)

// benchScenario is the reduced workload shared by the per-experiment
// benchmarks: 25 nodes, one epoch.
func benchScenario(seed uint64) experiment.Scenario {
	sc := experiment.DefaultScenario()
	sc.Seed = seed
	sc.Topo = experiment.GridSpec(5)
	sc.Epochs = 1
	sc.EpochLen = 150
	return sc
}

// BenchmarkT1NetworkSize exercises the encoding-overhead workload: a full
// simulated epoch with all five recording schemes attached (table T1).
func BenchmarkT1NetworkSize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := benchScenario(1)
		sc.Schemes = experiment.Codecs
		res := experiment.Run(sc)
		if res.MeanBitsPerPacket(experiment.SchemeDophy) <= 0 {
			b.Fatal("no overhead measured")
		}
	}
}

// BenchmarkF1PathLength exercises the deep-network workload behind the
// overhead-vs-path-length figure (F1): a corridor forces long paths.
func BenchmarkF1PathLength(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := benchScenario(2)
		sc.Topo = experiment.TopoSpec{Kind: experiment.TopoChain, N: 15, Spacing: 10, Range: 11}
		sc.Schemes = experiment.Codecs
		res := experiment.Run(sc)
		if len(res.Epochs[0].PerPacket) == 0 {
			b.Fatal("no packets")
		}
	}
}

// BenchmarkF2TrafficVolume exercises the accuracy-vs-traffic workload (F2):
// estimation epochs at high generation rate.
func BenchmarkF2TrafficVolume(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := benchScenario(3)
		sc.Collect.GenPeriod = 2
		sc.Schemes = experiment.Baselines
		res := experiment.Run(sc)
		if res.MeanAccuracy(experiment.SchemeDophy).Links == 0 {
			b.Fatal("nothing estimated")
		}
	}
}

// BenchmarkF3RoutingDynamics exercises the churn workload (F3): forced
// parent randomisation on every beacon cycle.
func BenchmarkF3RoutingDynamics(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := benchScenario(4)
		sc.Routing.RandomizeParentProb = 0.3
		sc.Schemes = experiment.Baselines
		res := experiment.Run(sc)
		if res.ParentChangesPerNodePerEpoch <= 0 {
			b.Fatal("no churn")
		}
	}
}

// BenchmarkF4LossLevels exercises the uniform-loss workload (F4).
func BenchmarkF4LossLevels(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := benchScenario(5)
		sc.Radio = experiment.RadioSpec{Kind: experiment.RadioUniformLoss, UniformLoss: 0.2}
		sc.Schemes = experiment.Baselines
		experiment.Run(sc)
	}
}

// BenchmarkF5ErrorCDF exercises the error-distribution workload (F5):
// scoring every scheme against ground truth.
func BenchmarkF5ErrorCDF(b *testing.B) {
	b.ReportAllocs()
	sc := benchScenario(6)
	sc.Schemes = experiment.Baselines
	res := experiment.Run(sc)
	eo := res.Epochs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range []string{experiment.SchemeDophy, experiment.SchemeMINC, experiment.SchemeLSQ} {
			experiment.Score(eo.Schemes[s], eo.Truth, sc.MinTruthAttempts)
		}
	}
}

// BenchmarkT2Aggregation exercises the aggregation-threshold workload (T2):
// Dophy with and without symbol aggregation over the same epoch.
func BenchmarkT2Aggregation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := benchScenario(7)
		sc.Dophy.AggThreshold = 2
		experiment.Run(sc)
	}
}

// BenchmarkT3ModelUpdate exercises the drifting-model workload (T3):
// random-walk link dynamics with per-epoch model updates.
func BenchmarkT3ModelUpdate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := benchScenario(8)
		sc.Radio = experiment.RadioSpec{Kind: experiment.RadioRandomWalk, WalkStep: 0.3, WalkEvery: 5}
		sc.Dophy.UpdateEvery = 1
		sc.Epochs = 2
		experiment.Run(sc)
	}
}

// BenchmarkF6Validation exercises the analytic-validation workload (F6): a
// high-rate single-hop chain.
func BenchmarkF6Validation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := benchScenario(9)
		sc.Topo = experiment.TopoSpec{Kind: experiment.TopoChain, N: 2, Spacing: 10, Range: 11}
		sc.Radio = experiment.RadioSpec{Kind: experiment.RadioUniformLoss, UniformLoss: 0.3}
		sc.Collect.GenPeriod = 0.5
		experiment.Run(sc)
	}
}

// BenchmarkExperimentRun runs one reduced-scale simulation end to end through
// experiment.Run (a 49-node grid, Dophy alone); CI's benchmark smoke step
// runs it. Simulation throughput of record is bench/'s sim_s_per_host_s.
func BenchmarkExperimentRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := benchScenario(10)
		sc.Topo = experiment.GridSpec(7)
		experiment.Run(sc)
	}
}

// BenchmarkPublicAPIEpoch measures the facade: one epoch through the public
// Simulation type, the path example code takes.
func BenchmarkPublicAPIEpoch(b *testing.B) {
	b.ReportAllocs()
	sim, err := NewSimulation(Options{GridSide: 5, Seed: 11, EpochSeconds: 100})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := sim.RunEpoch(); rep.DecodeErrors != 0 {
			b.Fatal("decode errors")
		}
	}
}

// BenchmarkT5HopModels exercises the hop-identity model extension (T5).
func BenchmarkT5HopModels(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := benchScenario(12)
		sc.Dophy.HopModelUpdateEvery = 1
		experiment.Run(sc)
	}
}

// BenchmarkT6RetryBudget exercises the retry-budget workload (T6) at the
// low-budget end where drops dominate.
func BenchmarkT6RetryBudget(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := benchScenario(13)
		sc.Mac.MaxRetx = 1
		sc.Schemes = experiment.Baselines
		experiment.Run(sc)
	}
}

// BenchmarkF7NodeFailures exercises the crash/recover workload (F7).
func BenchmarkF7NodeFailures(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := benchScenario(14)
		sc.Radio.FailMTBF = 120
		sc.Radio.FailMTTR = 30
		sc.Schemes = experiment.Baselines
		experiment.Run(sc)
	}
}

// BenchmarkF8BurstyLosses exercises the Gilbert-Elliott workload (F8).
func BenchmarkF8BurstyLosses(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := benchScenario(15)
		sc.Radio = experiment.RadioSpec{
			Kind: experiment.RadioGilbertElliott, MeanGood: 60, MeanBad: 15, BadFactor: 0.3,
		}
		sc.Schemes = experiment.Baselines
		experiment.Run(sc)
	}
}

// BenchmarkSweepRunAll measures the parallel sweep engine end to end: four
// independent scenario points fanned across the experiment worker pool. On a
// multi-core machine wall-clock per op approaches the slowest single point;
// with -cpu 1 (or one core) it degrades gracefully to the sequential sum.
func BenchmarkSweepRunAll(b *testing.B) {
	b.ReportAllocs()
	scs := make([]experiment.Scenario, 4)
	for i := range scs {
		sc := benchScenario(uint64(20 + i))
		sc.Radio = experiment.RadioSpec{
			Kind: experiment.RadioUniformLoss, UniformLoss: 0.05 * float64(i+1),
		}
		scs[i] = sc
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiment.RunAll(scs, experiment.RunOptions{})
		if len(res) != len(scs) {
			b.Fatal("missing results")
		}
	}
}

// BenchmarkSweepReplicates measures the multi-seed replicate path: the same
// scenario across four seed streams with mean/CI aggregation.
func BenchmarkSweepReplicates(b *testing.B) {
	b.ReportAllocs()
	sc := benchScenario(30)
	seeds := experiment.Seeds(30, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := experiment.RunReplicates(sc, seeds, experiment.RunOptions{})
		if mean, _ := rep.MeanAccuracyCI(experiment.SchemeDophy); mean <= 0 {
			b.Fatal("no accuracy signal")
		}
	}
}
