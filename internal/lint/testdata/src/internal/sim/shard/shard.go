// Package shard mirrors the real internal/sim/shard: the file-scoped
// concurrency-boundary pragma sanctions the conservative-lookahead
// worker goroutines (determflow's goroutine report and taint stay
// silent), and in exchange the whole package opts into the ownership
// contract rules — ownercross, sendown and barrierorder. Pooled-object
// hygiene still applies: shard-owned state may not retain another
// package's pooled objects across windows.
//
//dophy:concurrency-boundary -- fixture worker-per-shard engine; state crosses only at barrier functions
package shard

import (
	"fixture/internal/pool"
	"fixture/internal/topo"
)

// Engine runs one worker goroutine per shard beyond the first.
type Engine struct {
	lookahead float64        //dophy:owner immutable
	start     []chan float64 //dophy:owner shard
	outbox    [][]float64    //dophy:owner shard
	merged    uint64         //dophy:owner engine
	windowEnd float64        //dophy:owner window
	done      chan struct{}
}

// New builds an engine; construction (New*/init) may write any domain.
func New(shards int, lookahead float64) *Engine {
	e := &Engine{done: make(chan struct{})}
	e.lookahead = lookahead
	e.start = make([]chan float64, shards)
	e.outbox = make([][]float64, shards)
	return e
}

// Run spawns the sanctioned workers: no nogo/determflow diagnostic.
func (e *Engine) Run(shards int) {
	for i := 1; i < shards; i++ {
		go e.worker(topo.ShardID(i))
	}
}

// worker is window code (it is a goroutine target). Its typed-index
// access to e.start is the sanctioned projection; the coordinator-state
// touches below are the two canonical window-phase violations.
func (e *Engine) worker(i topo.ShardID) {
	for range e.start[i] {
		e.merged++      // want "window code touches engine-owned field merged"
		e.windowEnd = 0 // want "window code writes window-frozen field windowEnd"
		e.done <- struct{}{}
	}
}

// head projects a shard-owned slice through a plain int: the owning
// shard of element k is not provable from the type.
//
//dophy:window
func (e *Engine) head(k int) float64 {
	return e.outbox[k][0] // want "indexed by untyped int"
}

// all hands the whole per-shard slice to window code: no element
// projection at all.
//
//dophy:window
func (e *Engine) all() [][]float64 {
	return e.outbox // want "must be accessed through a typed element index"
}

// Pending is coordinator code (no annotation): touching shard-owned
// state here needs a //dophy:barrier happens-before point.
func (e *Engine) Pending(k topo.ShardID) int {
	return len(e.start[k]) // want "accessed outside window code"
}

// Reset writes an immutable field after construction.
func (e *Engine) Reset(d float64) {
	e.lookahead = d // want "may only be written during construction"
}

// Merged is a sanctioned coordinator accessor: barrier functions may
// touch any domain.
//
//dophy:barrier
func (e *Engine) Merged() uint64 { return e.merged }

// carrier is a pooled continuation, recycled through fabric's free list.
type carrier struct {
	val float64
}

type fabric struct {
	free []*carrier
}

// release returns a carrier to the pool — an ownership transfer: the
// next taker owns it, so the post-append write below is a use-after-send.
//
//dophy:window
func (f *fabric) release(c *carrier) {
	//dophy:transfers -- c belongs to the next taker from the free list
	f.free = append(f.free, c)
	c.val = 0 // want "used after its ownership was transferred away"
}

// Outbox leaks a pooled object across the shard boundary: sanctioning the
// goroutine does NOT sanction retaining recycled objects past a window.
type Outbox struct {
	last *pool.Obj // want "retains pooled pool.Obj"
}
