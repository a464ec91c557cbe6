package experiment

import (
	"runtime"
	"strconv"
	"testing"
	"time"
)

// allocBudgets are the committed allocation counts of one seed-7 call of
// each experiment at one sweep worker and one shard: the F5, F6 and T11
// tables, cheap runs that between them build every scheme (T11 the four
// codecs beside dophy, F5 MINC and LSQ, F6 dophy alone) and run the sink
// stage; F9, the one experiment with bounded forwarding queues (a queue
// pop that re-slices instead of copying down put it at 293,000 mallocs);
// and the S0 scale tier, the one run of the sharded engine, whose fabric
// delivers every beacon and data hop on a pooled carrier (an allocation
// per beacon would put it at 1.17 million mallocs) and whose barriers hand
// journeys to the sink stage every window (holding them for one flush at
// the epoch's end put it at 65,700 mallocs).
// Re-measure them with
//
//	go test -run '^TestExperimentAllocBudget$' -v ./internal/experiment
//
// and commit the logged counts when a change moves them on purpose.
var allocBudgets = []struct {
	id      string
	run     func(uint64, RunOptions) *Table
	mallocs uint64
	bytes   uint64
}{
	{"F5", F5, 1660, 749_000},
	{"F6", F6, 1385, 471_000},
	{"T11", T11, 2035, 1_131_000},
	{"F9", F9, 7175, 2_975_000},
	{"S0", S0, s0Mallocs, 39_950_000},
}

// s0Mallocs is S0's committed mallocs at one shard, shared by its
// allocBudgets row and BenchmarkS0ShardScaling.
const s0Mallocs = 55_360

// Tolerances over the committed counts. Both counts move by at most about
// 1.3% between plain, -race and dophy_invariants builds, so the same budget
// holds in every CI test step.
const (
	mallocSlack = 0.10
	bytesSlack  = 0.30
)

// TestExperimentAllocBudget fails when an experiment allocates more than
// its committed budget: mallocs by more than 10%, or bytes allocated by
// more than 30%. It catches a per-journey, per-hop or per-queued-packet
// allocation anywhere between the simulator and the estimators.
func TestExperimentAllocBudget(t *testing.T) {
	for _, b := range allocBudgets {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		b.run(7, RunOptions{Workers: 1})
		runtime.ReadMemStats(&after)
		mallocs := after.Mallocs - before.Mallocs
		bytes := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: mallocs %d (budget %d), bytes %d (budget %d)", b.id, mallocs, b.mallocs, bytes, b.bytes)
		if limit := float64(b.mallocs) * (1 + mallocSlack); float64(mallocs) > limit {
			t.Errorf("%s: %d mallocs, over the budget of %d by more than %.0f%%", b.id, mallocs, b.mallocs, 100*mallocSlack)
		}
		if limit := float64(b.bytes) * (1 + bytesSlack); float64(bytes) > limit {
			t.Errorf("%s: %d bytes allocated, over the budget of %d by more than %.0f%%", b.id, bytes, b.bytes, 100*bytesSlack)
		}
	}
}

// s0Run is one S0 run's cost at a shard count.
type s0Run struct {
	events  uint64
	windows uint64
	wall    time.Duration
	mallocs uint64
}

func runS0(b *testing.B, shards int) s0Run {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	tab := S0(7, RunOptions{Shards: shards})
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	stat := func(metric string) uint64 {
		for _, row := range tab.Rows {
			if row[0] == metric {
				v, err := strconv.ParseUint(row[1], 10, 64)
				if err != nil {
					b.Fatalf("shards=%d: %s row %q: %v", shards, metric, row[1], err)
				}
				return v
			}
		}
		b.Fatalf("shards=%d: S0 table has no %s row", shards, metric)
		return 0
	}
	return s0Run{events: stat("events"), windows: stat("windows"), wall: wall, mallocs: after.Mallocs - before.Mallocs}
}

// BenchmarkS0ShardScaling runs the S0 scale tier unsharded and then 2-way
// sharded in one process. It fails unless the unsharded run stays within
// S0's committed mallocs budget (s0Mallocs, 10% slack), which an
// allocation per beacon exceeds at every shard count, and the sharded run
//   - executes exactly the unsharded run's events and lookahead windows
//     (one shard runs the same windows as two),
//   - keeps at least 67% of its events/sec (wall time at most 1/0.67 of
//     the unsharded run's; the event counts are equal, so this is the same
//     bound), which absorbs shared-runner noise and a saturated runner's
//     lack of speedup but not a barrier or scheduling regression, and
//   - allocates at most 1.5× the unsharded run's mallocs: the fabric's
//     carriers are pooled, so a second shard costs no allocation per
//     message (measured 1.01×: both shard counts flush journeys to the
//     sink stage at every window barrier).
//
// Run it once with
//
//	go test -bench='^BenchmarkS0ShardScaling$' -benchtime=1x -run '^$' ./internal/experiment
func BenchmarkS0ShardScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		one, two := runS0(b, 1), runS0(b, 2)
		b.ReportMetric(one.wall.Seconds(), "k1-s")
		b.ReportMetric(two.wall.Seconds(), "k2-s")
		b.ReportMetric(float64(one.mallocs), "k1-mallocs")
		b.ReportMetric(float64(two.mallocs), "k2-mallocs")
		if limit := s0Mallocs * (1 + mallocSlack); float64(one.mallocs) > limit {
			b.Fatalf("1 shard made %d mallocs, over S0's budget of %d by more than %.0f%%", one.mallocs, s0Mallocs, 100*mallocSlack)
		}
		if one.events != two.events {
			b.Fatalf("events: %d unsharded, %d at 2 shards", one.events, two.events)
		}
		if one.windows != two.windows {
			b.Fatalf("windows: %d unsharded, %d at 2 shards", one.windows, two.windows)
		}
		if float64(two.wall) > float64(one.wall)/0.67 {
			b.Fatalf("2 shards took %v against %v unsharded: events/sec fell by more than 33%%", two.wall, one.wall)
		}
		if 2*two.mallocs > 3*one.mallocs {
			b.Fatalf("2 shards made %d mallocs against %d unsharded: more than 1.5×", two.mallocs, one.mallocs)
		}
	}
}
