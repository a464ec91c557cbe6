// Package shard mirrors the real internal/sim/shard: the file-scoped
// concurrency-boundary pragma sanctions the conservative-lookahead
// worker goroutines (determflow's goroutine report and taint stay
// silent). Pooled-object hygiene still applies: shard-owned state may not
// retain another package's pooled objects across windows.
//
//dophy:concurrency-boundary -- fixture worker-per-shard engine; state crosses only at barrier functions
package shard

import (
	"fixture/internal/pool"
	"fixture/internal/topo"
)

// Engine runs one worker goroutine per shard beyond the first.
type Engine struct {
	start []chan float64
	done  chan struct{}
}

// Run spawns the sanctioned workers: no determflow diagnostic.
func (e *Engine) Run(shards int) {
	for i := 1; i < shards; i++ {
		go e.worker(topo.ShardID(i))
	}
}

func (e *Engine) worker(i topo.ShardID) {
	for range e.start[i] {
		e.done <- struct{}{}
	}
}

// Outbox leaks a pooled object across the shard boundary: sanctioning the
// goroutine does NOT sanction retaining recycled objects past a window.
type Outbox struct {
	last *pool.Obj // want "retains pooled pool.Obj"
}
