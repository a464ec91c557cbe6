// Performance of record (wall time, events/sec, allocations and peak RSS
// per workload, and the per-layer rows) comes from the benchmark in bench/
// (`bash bench/run.sh`). The one root benchmark below is a smoke run,
// compiled (but skipped) by plain `go test`.
package dophy

import (
	"testing"

	"dophy/internal/experiment"
)

// BenchmarkExperimentRun runs one reduced-scale simulation end to end through
// experiment.Run (a 49-node grid, Dophy alone); CI's benchmark smoke step
// runs it. Simulation throughput of record is bench/'s sim_s_per_host_s.
func BenchmarkExperimentRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := experiment.DefaultScenario()
		sc.Seed = 10
		sc.Epochs = 1
		sc.EpochLen = 150
		experiment.Run(sc)
	}
}
