// Package goroutine spawns outside a concurrency boundary, which determflow
// reports at the go statement.
package goroutine

// Spawn launches work concurrently outside the sweep engine.
func Spawn(f func()) {
	go f() // want "goroutine outside"
}
