// Package flow exercises determflow's pseudo-sources and its
// inter-procedural map-order check.
package flow

import "fmt"

// clock is a function-valued package variable nothing in the module
// assigns; the engine must assume the worst about whatever ends up there.
var clock func() int64

// Sample reads the unresolvable clock.
func Sample() int64 {
	return clock() // want "indirect call has no statically known callee"
}

// Dump leaks map iteration order through a helper that prints.
func Dump(m map[string]int) {
	for k := range m {
		show(k) // want "map iteration order leaks through call to internal/flow.show"
	}
}

func show(s string) { fmt.Println(s) }
