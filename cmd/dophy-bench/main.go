// dophy-bench regenerates every table and figure of the reproduced
// evaluation (see DESIGN.md's experiment index and EXPERIMENTS.md for the
// recorded results). Performance is measured by the benchmark of record in
// bench/, not here.
//
// Usage:
//
//	dophy-bench                 # run all experiments, aligned text output
//	dophy-bench -exp T1,F3      # run a subset
//	dophy-bench -csv            # CSV output instead of aligned text
//	dophy-bench -seed 42        # change the base seed
//	dophy-bench -workers 4      # cap the scenario-sweep worker pool
//	dophy-bench -list           # list experiment ids
//	dophy-bench -exp S0 -shards 4
//	                            # scale-tier experiment on the sharded engine
//
// With -parallel, experiments run side by side on their own goroutines:
// each runs independent scenarios, and results are keyed by experiment id.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"dophy/internal/experiment"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the selected experiments and prints their tables to
// stdout. It returns the exit code: 2 for a usage error, 0 otherwise.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dophy-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expFlag  = fs.String("exp", "", "comma-separated experiment ids (default: all)")
		csvFlag  = fs.Bool("csv", false, "emit CSV instead of aligned text")
		seedFlag = fs.Uint64("seed", 7, "base seed for all experiments")
		listFlag = fs.Bool("list", false, "list experiment ids and exit")
		parallel = fs.Int("parallel", runtime.NumCPU(), "experiments to run concurrently (1 = sequential)")
		workers  = fs.Int("workers", 0, "scenario-sweep worker pool size (0 = NumCPU)")
		shards   = fs.Int("shards", 1, "shard count for scale-tier experiments (S*); other tiers ignore it")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "dophy-bench: "+format+"\n", a...)
		return 2
	}
	switch {
	case *parallel < 1:
		return usage("-parallel must be at least 1, got %d", *parallel)
	case *workers < 0:
		return usage("-workers must be 0 (NumCPU) or positive, got %d", *workers)
	case *shards < 1:
		return usage("-shards must be at least 1, got %d", *shards)
	}
	opts := experiment.RunOptions{Workers: *workers, Shards: *shards}

	// Scale tiers (S*) are opt-in: a bare run covers All() — the tables and
	// figures the goldens and the seed-7 CSV pin down — while -exp may name
	// tiers from either registry.
	registry := experiment.All()
	scaleRegistry := experiment.Scale()
	if *listFlag {
		for _, r := range registry {
			fmt.Fprintf(stdout, "%-4s %s\n", r.ID, r.Title)
		}
		for _, r := range scaleRegistry {
			fmt.Fprintf(stdout, "%-4s %s (scale tier; opt-in via -exp, honours -shards)\n", r.ID, r.Title)
		}
		return 0
	}

	combined := append(append([]experiment.Runner{}, registry...), scaleRegistry...)
	want := map[string]bool{}
	if *expFlag != "" {
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.ToUpper(strings.TrimSpace(id))
			if !knownID(combined, id) {
				return usage("unknown experiment %q (use -list)", id)
			}
			want[id] = true
		}
	}

	var selected []experiment.Runner
	for _, r := range combined {
		if len(want) == 0 {
			if knownID(scaleRegistry, r.ID) {
				continue // scale tiers run only when explicitly selected
			}
		} else if !want[r.ID] {
			continue
		}
		selected = append(selected, r)
	}

	// Experiments are fully independent and deterministic (each run derives
	// all randomness from its own seed), so they parallelise trivially; each
	// experiment additionally sweeps its own scenario points over up to
	// -workers goroutines. Results are printed in registry order regardless
	// of completion order.
	type outcome struct {
		table   *experiment.Table
		elapsed time.Duration
	}
	results := make([]outcome, len(selected))
	sem := make(chan struct{}, *parallel)
	var wg sync.WaitGroup
	for i, r := range selected {
		wg.Add(1)
		go func(i int, r experiment.Runner) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			results[i] = outcome{table: r.Run(*seedFlag, opts), elapsed: time.Since(start)}
		}(i, r)
	}
	wg.Wait()

	for i, res := range results {
		if *csvFlag {
			fmt.Fprintf(stdout, "# %s: %s\n%s\n", res.table.ID, res.table.Title, res.table.CSV())
		} else {
			fmt.Fprintln(stdout, res.table.Format())
			fmt.Fprintf(stdout, "[%s completed in %.1fs]\n\n", selected[i].ID, res.elapsed.Seconds())
		}
	}
	return 0
}

func knownID(rs []experiment.Runner, id string) bool {
	for _, r := range rs {
		if r.ID == id {
			return true
		}
	}
	return false
}
