// Package badrand draws randomness outside internal/rng, which determflow
// reports at every math/rand call.
package badrand

import "math/rand"

// Roll draws from the shared global stream: nondeterministic.
func Roll() int {
	return rand.Intn(6) // want "use of math/rand.Intn"
}

// Fresh builds a private source, still outside internal/rng.
func Fresh(seed int64) *rand.Rand {
	src := rand.NewSource(seed) // want "use of math/rand.NewSource"
	return rand.New(src)        // want "use of math/rand.New"
}
