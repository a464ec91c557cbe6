package main

import (
	"fmt"
	"runtime"

	"dophy"
	"dophy/internal/experiment"
)

// workload is one named input set. Facade workloads drive the public API
// (dophy.NewSimulation + RunEpoch); the sharded workload drives
// experiment.NewShardedSession, the only entry point to internal/sim/shard.
type workload struct {
	name string
	why  string
	// opt configures a facade workload; its Seed is set per deployment.
	opt     dophy.Options
	sharded bool
	// networks is the number of deployments a run simulates, each from its
	// own seed derived from the run's seed and each in its own child
	// process. One random deployment per seed makes every metric follow
	// that deployment's luck; averaging several keeps the run's numbers
	// close from seed to seed.
	networks int
	// epochs is the number of epochs run on each deployment; networks x
	// epochs is at least 100, so p90 has ten samples beyond it.
	epochs int
	// setupReps is how many times a facade child constructs its simulation
	// (the last one runs the epochs): construction takes milliseconds, too
	// short to read once.
	setupReps int
}

// The workloads are chosen so that each stresses a different layer and each
// planned optimisation has one workload that exercises it and one that
// bypasses it; bench/README.md records the reasoning per workload.
var workloads = []*workload{
	{
		name: "drift-estimate",
		why:  "estimation-heavy: a drifting 225-node grid dirties most links every epoch, so MINC/LSQ dominate and no nothing-changed fast path applies",
		opt: dophy.Options{GridSide: 15, Dynamics: dophy.DynamicsDrift, EpochSeconds: 30,
			CompareBaselines: true},
		networks: 20, epochs: 10, setupReps: 3,
	},
	{
		name: "churn-forward",
		why:  "forwarding-heavy: forced parent churn and 1 s generation keep collect, mac, routing and the journey subscribers busy",
		opt: dophy.Options{GridSide: 12, ParentChurn: 0.3, GenPeriodSeconds: 1, EpochSeconds: 60,
			CompareBaselines: true},
		networks: 10, epochs: 10, setupReps: 4,
	},
	{
		name: "congest-bursty",
		why:  "same layers, other paths: bounded queues and Gilbert-Elliott bursts drive the drop path; a forwarding gain that costs drops shows here",
		opt: dophy.Options{GridSide: 10, Dynamics: dophy.DynamicsBursty, QueueCap: 4, GenPeriodSeconds: 1,
			EpochSeconds: 60, CompareBaselines: true},
		networks: 10, epochs: 25, setupReps: 4,
	},
	{
		name:     "scale-sharded",
		why:      "the only run of sim/shard and the only large setup: a 2500-node grid on min(2, nproc) shards, Dophy only, no MINC/LSQ",
		sharded:  true,
		networks: 4, epochs: 25, setupReps: 1,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// netSeed is the simulation seed of deployment i of a run with the given
// seed. Seed 0 means seed 1, as it does in dophy.Options.
func netSeed(seed uint64, i int) uint64 {
	if seed == 0 {
		seed = 1
	}
	return seed*100 + uint64(i)
}

// facadeOptions returns the workload's options for deployment i.
func (w *workload) facadeOptions(seed uint64, i int) dophy.Options {
	opt := w.opt
	opt.Seed = netSeed(seed, i)
	return opt
}

// epochSeconds is the simulated length of one epoch.
func (w *workload) epochSeconds() float64 {
	if w.sharded {
		return float64(shardedScenario(1).EpochLen)
	}
	return w.opt.EpochSeconds
}

// shardedScenario mirrors the S0 scale tier (experiment.S0): a 50x50 grid
// with Trickle beaconing, warmup 180 s and a 30 s generation period, here
// with 10 s epochs so one epoch is a fraction of a second of host time.
func shardedScenario(seed uint64) experiment.Scenario {
	const side = 50
	sc := experiment.DefaultScenario()
	sc.Name = "bench-scale-sharded"
	sc.Seed = seed
	sc.Topo = experiment.GridSpec(side)
	sc.Routing.AdaptiveBeacon = true
	sc.Routing.BeaconMin = 0.5
	sc.Routing.BeaconMax = 2
	sc.Routing.TrickleReset = 0.5
	sc.Collect.GenPeriod = 30
	sc.Collect.GenJitter = 0.25
	sc.Collect.TTL = 8 * side
	sc.Warmup = 180
	sc.EpochLen = 10
	return sc
}

// shardCount is K = min(2, nproc): two shards where the host can run them
// in parallel, one otherwise. Outputs are byte-identical at every K.
func shardCount() int { return min(2, runtime.NumCPU()) }
