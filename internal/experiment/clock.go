package experiment

import (
	"time"

	"dophy/internal/sim"
)

// timeNow is indirected for tests. This is the module's single sanctioned
// wall-clock read inside the simulation tree: experiment T4 reports
// sim-seconds-per-wall-second, so the wall clock is the quantity being
// measured, not an input to any simulated outcome. It holds the function,
// not a reading; nowNanos is the one call through it. A wall-clock read
// that reached a simulated outcome would make the goldens and
// TestShardedByteDeterminism fail from run to run.
var timeNow = time.Now

// simTimeAlias lets extension experiments write durations without importing
// the sim package name into expression-heavy code.
type simTimeAlias = sim.Time

// Duration is the exported name for simulated seconds, for callers outside
// the internal tree's sim package (examples, tools).
type Duration = sim.Time
