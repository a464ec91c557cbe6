package sim

import "time"

// now reads the wall clock. A justified waiver on the call suppresses the
// diagnostic there and stops the taint at its source.
func now() time.Time {
	//dophy:allow determflow -- wall-clock is the quantity under test here
	return time.Now()
}
