package experiment

import "fmt"

// This file is the scale-tier registry: experiments sized to exercise the
// sharded engine (internal/sim/shard) rather than to reproduce a paper
// table. They are deliberately kept out of All() — goldens and the seed-7
// bench CSV iterate over All(), and scale tiers are minutes of work meant
// to be opted into explicitly (dophy-bench -exp S0 / -exp S1).

// Scale returns the scale-tier runners. Disjoint from All(): these run at
// RunOptions.Shards and report partitioned-engine telemetry instead of scheme
// comparisons.
func Scale() []Runner {
	return []Runner{
		{"S0", "sharded engine smoke (2.5k-node grid)", S0},
		{"S1", "sharded engine at scale (100k-node grid)", S1},
	}
}

// scaleScenario returns the common scale-tier configuration: a large
// jittered grid with Trickle beaconing (plain periodic beacons would need
// one period per hop of tree depth to converge — hundreds of periods at
// these diameters) and a generation period slow enough to bound in-flight
// packets while still producing tens of packet events per node per epoch.
func scaleScenario(o RunOptions, name string, seed uint64, side int) Scenario {
	sc := DefaultScenario()
	sc.Name = name
	sc.Seed = seed
	sc.Topo = GridSpec(side)
	// BeaconMax caps idle back-off at 2s: a node that routes for the first
	// time has its next beacon at most one capped interval away, so the
	// route wave sweeps the grid at roughly a hop per second instead of
	// stalling behind fully backed-off timers.
	sc.Routing.AdaptiveBeacon = true
	sc.Routing.BeaconMin = 0.5
	sc.Routing.BeaconMax = 2
	sc.Routing.TrickleReset = 0.5
	sc.Collect.GenPeriod = 60
	// Paths grow with the grid diameter; leave generous TTL headroom for
	// detours during convergence so long journeys are not cut short.
	sc.Collect.TTL = 8 * side
	sc.Epochs = 1
	return sc
}

// runScaleTier runs sc under the sharded engine at the options' shard
// count and renders the telemetry table shared by S0 and S1.
func runScaleTier(id, title string, sc Scenario, o RunOptions) *Table {
	t := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"metric", "value"},
		Notes: []string{
			"sharded run: byte-identical at every -shards value; see DESIGN.md",
			fmt.Sprintf("shards=%d (dophy-bench -shards)", o.ShardCount()),
		},
	}
	s := NewShardedSession(sc, DefaultShardSpec(o.ShardCount()))
	defer s.Close()
	res := runEpochs(&s.deployment)
	eo := res.Epochs[len(res.Epochs)-1]
	st := s.Stats()
	dophy := eo.Schemes[SchemeDophy]
	row := func(metric, value string) { t.Rows = append(t.Rows, []string{metric, value}) }
	row("nodes", fmt.Sprintf("%d", s.Topology().N()))
	row("links", fmt.Sprintf("%d", st.Links))
	row("shards", fmt.Sprintf("%d", st.Shards))
	row("cut-links", fmt.Sprintf("%d", st.CutLinks))
	row("lookahead-s", fmt.Sprintf("%g", float64(st.Lookahead)))
	row("windows", fmt.Sprintf("%d", st.Windows))
	row("exchanged", fmt.Sprintf("%d", st.Exchanged))
	// Wall-clock (and so events/sec) is deliberately absent: simulation code
	// never reads wall time. dophy-bench prints each experiment's wall time
	// under its table; events/sec is this row over that time.
	row("events", fmt.Sprintf("%d", res.Events))
	row("routed-nodes", fmt.Sprintf("%d", s.Routed()))
	row("delivered", fmt.Sprintf("%d", eo.Truth.Delivered))
	row("generated", fmt.Sprintf("%d", eo.Truth.Generated))
	row("beacons", fmt.Sprintf("%d", res.BeaconsSent))
	row("dophy-bits-per-packet", f2(dophy.BitsPerPacket()))
	return t
}

// S0 is the CI-sized scale tier: large enough that a 2-shard run executes
// thousands of windows, small enough to finish in seconds.
// BenchmarkS0ShardScaling runs it at 1 and 2 shards and gates on
// events/sec.
func S0(seed uint64, o RunOptions) *Table {
	sc := scaleScenario(o, "s0-scale-smoke", seed, 50)
	sc.Warmup = 180
	sc.EpochLen = 60
	sc.Collect.GenPeriod = 30
	return runScaleTier("S0", "sharded engine smoke (2.5k-node grid)", sc, o)
}

// S1 is the headline scale tier: a ~100k-node grid (316x316) that a flat
// per-epoch map pipeline could not hold. Expect minutes at one shard.
// More shards need not be faster: on a 2-core VM, an epoch of the
// 2,500-node scale-sharded benchmark scenario took 79–86 ms at two shards
// against 74–84 ms at one.
func S1(seed uint64, o RunOptions) *Table {
	sc := scaleScenario(o, "s1-scale-100k", seed, 316)
	sc.Warmup = 700
	sc.EpochLen = 120
	sc.Collect.GenPeriod = 120
	return runScaleTier("S1", "sharded engine at scale (100k-node grid)", sc, o)
}
