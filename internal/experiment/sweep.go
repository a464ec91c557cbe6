// This file is the parallel sweep engine. Every table/figure runner is a
// sweep over independent scenario points, and each point is a run that
// shares no state with any other (its simulation is single-threaded beside
// one sink goroutine per epoch), so points fan out across a bounded worker
// pool and results land in input order, which keeps every table
// byte-identical to a sequential execution for the same seed.
//
//dophy:concurrency-boundary -- scenario-level fan-out over independent runs; results land in input order and workers share only an atomic index
package experiment

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// RunOptions says how registry experiments run. Workers and Shards change
// wall time only (the S* tables echo the shard count). The zero value is
// the default: NumCPU sweep workers, one shard.
type RunOptions struct {
	// Workers caps scenario-level parallelism; < 1 means runtime.NumCPU().
	Workers int
	// Shards is the shard count of the scale tiers (S*); < 1 means 1.
	Shards int
}

// SweepWorkers is the effective sweep pool size.
func (o RunOptions) SweepWorkers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

// ShardCount is the effective scale-tier shard count.
func (o RunOptions) ShardCount() int {
	if o.Shards > 0 {
		return o.Shards
	}
	return 1
}

// Sweep evaluates fn(0..n-1) on up to o.SweepWorkers() goroutines and
// returns the results in index order. fn must be safe to call concurrently
// with itself — which every scenario-point function is, because each point
// builds its own topology, RNG stream and simulation engine from its
// scenario alone.
func Sweep[T any](o RunOptions, n int, fn func(i int) T) []T {
	out := make([]T, n)
	w := o.SweepWorkers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// RunAll executes the scenarios through the sweep pool and returns their
// results in input order.
func RunAll(scs []Scenario, o RunOptions) []*RunResult {
	return Sweep(o, len(scs), func(i int) *RunResult { return Run(scs[i]) })
}

// Seeds derives n deterministic, well-separated replicate seeds from base.
func Seeds(base uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		// SplitMix64-style increment keeps replicate streams far apart even
		// for adjacent bases.
		out[i] = base + uint64(i)*0x9e3779b97f4a7c15
	}
	return out
}

// Replicates is a multi-seed repetition of one scenario: the same deployment
// question asked across independent random realisations, with mean/CI
// aggregation over any per-run metric.
type Replicates struct {
	Scenario Scenario
	Seeds    []uint64
	Results  []*RunResult
}

// RunReplicates runs sc once per seed (overriding sc.Seed) through the
// sweep pool.
func RunReplicates(sc Scenario, seeds []uint64, o RunOptions) *Replicates {
	results := Sweep(o, len(seeds), func(i int) *RunResult {
		p := sc
		p.Seed = seeds[i]
		return Run(p)
	})
	return &Replicates{Scenario: sc, Seeds: append([]uint64(nil), seeds...), Results: results}
}

// Metric aggregates fn over the replicates and returns the sample mean and
// the 95% confidence half-width (normal approximation, sample standard
// deviation). Replicates where fn returns NaN are skipped; with fewer than
// two usable replicates the half-width is 0.
func (r *Replicates) Metric(fn func(*RunResult) float64) (mean, ci95 float64) {
	var xs []float64
	for _, res := range r.Results {
		if v := fn(res); !math.IsNaN(v) {
			xs = append(xs, v)
		}
	}
	n := float64(len(xs))
	if n == 0 {
		return math.NaN(), 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean = sum / n
	if n < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, 1.96 * math.Sqrt(ss/(n-1)) / math.Sqrt(n)
}

// MeanAccuracyCI aggregates a scheme's run-level MAE across replicates.
func (r *Replicates) MeanAccuracyCI(scheme string) (mean, ci95 float64) {
	return r.Metric(func(res *RunResult) float64 { return res.MeanAccuracy(scheme).MAE })
}
