package experiment

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"dophy/internal/collect"
	"dophy/internal/topo"
)

// renderRun serialises everything a sharded run produced — per-link ground
// truth, every scheme's full estimate vectors and bit accounting, per-packet
// samples and run-level counters — so byte-comparing two renderings proves
// the runs were observably identical.
func renderRun(res *RunResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "events=%d beacons=%d packets=%v changes=%v\n",
		res.Events, res.BeaconsSent, res.MeanPacketsPerEpoch, res.ParentChangesPerNodePerEpoch)
	for _, eo := range res.Epochs {
		fmt.Fprintf(&b, "epoch %d: gen=%d del=%d drop=%d pchanges=%d qdrops=%d\n",
			eo.Epoch, eo.Truth.Generated, eo.Truth.Delivered, eo.Truth.Dropped,
			eo.Truth.ParentChanges, eo.QueueDrops)
		for i, c := range eo.Truth.Counts {
			if c.Attempts != 0 || c.Successes != 0 || c.DataAttempts != 0 {
				l := eo.Truth.Table.Link(topo.LinkIdx(i))
				fmt.Fprintf(&b, "  truth %d->%d a=%d s=%d d=%d\n", l.From, l.To, c.Attempts, c.Successes, c.DataAttempts)
			}
		}
		names := make([]string, 0, len(eo.Schemes))
		for name := range eo.Schemes {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			se := eo.Schemes[name]
			fmt.Fprintf(&b, "  scheme %s ann=%d hdr=%d extra=%d tx=%d pkts=%d hops=%d decerr=%d\n",
				name, se.AnnotationBits, se.HeaderBits, se.ExtraBits,
				se.TransmittedBits, se.Packets, se.Hops, se.DecodeErrors)
			for i := range se.Loss {
				var s int64
				if se.Samples != nil {
					s = se.Samples[i]
				}
				var e float64
				if se.StdErr != nil {
					e = se.StdErr[i]
				}
				fmt.Fprintf(&b, "   %d %v %d %v\n", i, se.Loss[i], s, e)
			}
		}
		for _, ps := range eo.PerPacket {
			fmt.Fprintf(&b, "  pkt hops=%d bits=%d\n", ps.Hops, ps.DophyBits)
		}
	}
	return b.String()
}

// shardTestScenario is a ~200-node grid with every shardable dynamic knob
// exercised (random-walk radio, forced parent churn, Trickle beaconing) so
// that any draw attributed to the wrong stream, any mis-ordered cross-shard
// message and any mis-merged counter shows up as a byte difference.
func shardTestScenario() Scenario {
	sc := DefaultScenario()
	sc.Name = "shard-determinism"
	sc.Seed = 977
	sc.Topo = GridSpec(14) // 196 nodes
	sc.Radio = RadioSpec{Kind: RadioRandomWalk, WalkEvery: 5, WalkStep: 0.08}
	sc.Routing.RandomizeParentProb = 0.05
	sc.Routing.AdaptiveBeacon = true
	sc.Routing.BeaconMin = 0.5
	sc.Routing.BeaconMax = 30
	sc.Routing.TrickleReset = 0.5
	sc.Warmup = 60
	sc.EpochLen = 120
	sc.Epochs = 2
	sc.Schemes = Codecs | Baselines
	return sc
}

// shardFailureScenario is shardTestScenario with node crashes overlaid
// (experiment F7's dynamics): every node's up/down flips must reach each
// shard's radio replica identically at every shard count.
func shardFailureScenario() Scenario {
	sc := shardTestScenario()
	sc.Name = "shard-determinism-failures"
	sc.Radio.FailMTBF = 300
	sc.Radio.FailMTTR = 60
	return sc
}

// TestShardedByteDeterminism is the sharded engine's correctness gate: the
// full epoch reports of a sharded run must be byte-identical at 1, 2, 4 and
// 8 shards. K=1 runs the same lookahead windows on a single engine with no
// worker goroutine, so this pins every parallel execution to the
// sequential reference.
func TestShardedByteDeterminism(t *testing.T) {
	for _, sc := range []Scenario{shardTestScenario(), shardFailureScenario()} {
		t.Run(sc.Name, func(t *testing.T) {
			var ref string
			for _, k := range []int{1, 2, 4, 8} {
				got := renderRun(RunSharded(sc, DefaultShardSpec(k)))
				if k == 1 {
					ref = got
					if len(ref) < 10000 {
						t.Fatalf("reference report suspiciously small (%d bytes) — workload too light to trust", len(ref))
					}
					continue
				}
				if got != ref {
					t.Errorf("shards=%d diverges from shards=1:\n%s", k, firstDiff(ref, got))
				}
			}
		})
	}
}

// homeFeeder stands in front of the scheme bank and records, for every
// journey record it is fed, the shards owning the origins of the packets
// the record has carried.
type homeFeeder struct {
	next  journeyFeeder
	owner []topo.ShardID
	homes map[*collect.PacketJourney]map[topo.ShardID]bool
	fed   int
}

func (f *homeFeeder) feed(j *collect.PacketJourney) {
	if f.homes[j] == nil {
		f.homes[j] = map[topo.ShardID]bool{}
	}
	f.homes[j][f.owner[j.Origin]] = true
	f.fed++
	f.next.feed(j)
}

// TestJourneysReturnHome pins where the deployment recycles journeys at two
// shards: back to the collect network of the shard that generated them, so
// a journey record only ever carries packets from nodes of one shard. A
// recycle that returned every record to one shard's pool would hand the
// other shard's records to its own nodes' packets.
func TestJourneysReturnHome(t *testing.T) {
	sc := shardTestScenario()
	sc.Schemes = 0
	sc.Epochs = 3
	s := NewShardedSession(sc, DefaultShardSpec(2))
	defer s.Close()
	f := &homeFeeder{next: s.bank, owner: s.owner, homes: map[*collect.PacketJourney]map[topo.ShardID]bool{}}
	s.bank.sink.to = f
	runEpochs(&s.deployment)
	records := map[topo.ShardID]int{}
	for _, homes := range f.homes {
		if len(homes) > 1 {
			t.Fatalf("a journey record carried packets from nodes of shards %v", homes)
		}
		for k := range homes {
			records[k]++
		}
	}
	if records[0] == 0 || records[1] == 0 {
		t.Fatalf("journey records per shard: %v; both shards must generate packets", records)
	}
	if f.fed <= len(f.homes) {
		t.Fatalf("%d journeys on %d records: no record was recycled", f.fed, len(f.homes))
	}
}

// TestShardedWarmEpochAllocs pins the fabric's allocation at two shards:
// once the event pools are warm, an epoch allocates a small bounded amount
// however many beacons and hops cross the shard boundary. Warm epochs read
// 28–37 mallocs; a pool that never parked its carriers would bind a handler
// per beacon and per hop, and make a block of carriers every 64 of them,
// tens of thousands of mallocs an epoch.
func TestShardedWarmEpochAllocs(t *testing.T) {
	sc := shardTestScenario()
	sc.Schemes = 0
	sc.EpochLen = 60
	s := NewShardedSession(sc, DefaultShardSpec(2))
	defer s.Close()
	const epochs, warm, limit = 12, 4, 200
	mallocs := make([]uint64, 0, epochs)
	var before, after runtime.MemStats
	for e := 1; e <= epochs; e++ {
		runtime.ReadMemStats(&before)
		s.RunEpoch()
		runtime.ReadMemStats(&after)
		mallocs = append(mallocs, after.Mallocs-before.Mallocs)
	}
	if s.Stats().Exchanged == 0 {
		t.Fatal("no cross-shard message: the scenario does not exercise the fabric")
	}
	t.Logf("mallocs per epoch: %v", mallocs)
	for e, m := range mallocs[warm:] {
		if m >= limit {
			t.Fatalf("epoch %d made %d mallocs, want fewer than %d once warm: %v", warm+e+1, m, limit, mallocs)
		}
	}
}

// TestShardedRejectsUnshardable locks in the validation: configurations
// whose event order depends on the shard layout, or that leave no
// lookahead window, must refuse to run sharded.
func TestShardedRejectsUnshardable(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("bounded-queues", func() {
		sc := DefaultScenario()
		sc.Collect.QueueCap = 4
		NewShardedSession(sc, DefaultShardSpec(2))
	})
	expectPanic("zero-data-floor", func() {
		sc := DefaultScenario()
		sc.Collect.HopDelay, sc.Collect.TxTime = 0, 0
		NewShardedSession(sc, DefaultShardSpec(2))
	})
}

// TestScaleTierSmoke runs the S0 registry tier at two shards and checks the
// run actually converged and moved traffic — the same configuration
// BenchmarkS0ShardScaling times.
func TestScaleTierSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scale tier smoke is seconds of work")
	}
	tab := S0(7, RunOptions{Shards: 2})
	vals := map[string]string{}
	for _, row := range tab.Rows {
		vals[row[0]] = row[1]
	}
	if vals["nodes"] != "2500" {
		t.Fatalf("nodes = %s, want 2500", vals["nodes"])
	}
	if vals["shards"] != "2" {
		t.Fatalf("shards = %s, want 2", vals["shards"])
	}
	var routed, delivered, windows int
	fmt.Sscanf(vals["routed-nodes"], "%d", &routed)
	fmt.Sscanf(vals["delivered"], "%d", &delivered)
	fmt.Sscanf(vals["windows"], "%d", &windows)
	if routed < 2300 {
		t.Errorf("routed-nodes = %d, want >= 2300 of 2499 (routing failed to converge)", routed)
	}
	if delivered < 1000 {
		t.Errorf("delivered = %d, want >= 1000", delivered)
	}
	if windows < 1000 {
		t.Errorf("windows = %d, want >= 1000 (lookahead windows did not engage)", windows)
	}
	var events int
	fmt.Sscanf(vals["events"], "%d", &events)
	if events == 0 {
		t.Errorf("events = %s, want > 0", vals["events"])
	}
}

// firstDiff locates the first differing line of two renderings.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  ref: %s\n  got: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

// TestLoadWeights: on a chain sink-1-2-3 each node's BFS subtree is the
// nodes beyond it, so its weight is that count times treeHopEvents over
// GenPeriod plus its degree over BeaconInterval.
func TestLoadWeights(t *testing.T) {
	sc := DefaultScenario()
	sc.Topo = TopoSpec{Kind: TopoChain, N: 4, Spacing: 10, Range: 11}
	tp, _, _ := sc.Deploy()
	data, beacon := treeHopEvents/float64(sc.Collect.GenPeriod), 1/float64(sc.Routing.BeaconInterval())
	subtree, degree := []float64{4, 3, 2, 1}, []float64{1, 2, 2, 1}
	got := loadWeights(sc, tp)
	for i := range subtree {
		if want := subtree[i]*data + degree[i]*beacon; got[i] != want {
			t.Fatalf("node %d weighs %v, want %v (weights %v)", i, got[i], want, got)
		}
	}
}
