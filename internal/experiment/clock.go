package experiment

import (
	"time"

	"dophy/internal/sim"
)

// nowNanos is the module's single sanctioned wall-clock read inside the
// simulation tree. Its one user is the sink stage's waitNs, the simulation
// side's time blocked on the sink, which BenchmarkSessionRunEpoch reports:
// a cost, not an input to any simulated outcome. A wall-clock read that
// reached a simulated outcome would make the goldens and
// TestShardedByteDeterminism fail from run to run.
func nowNanos() int64 { return time.Now().UnixNano() }

// Duration is the exported name for simulated seconds, for callers outside
// the internal tree's sim package (examples, tools).
type Duration = sim.Time
