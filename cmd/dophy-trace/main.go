// dophy-trace exports a simulation run's packet journeys as JSON lines, or
// analyses a previously exported trace: it replays the journeys through the
// Dophy sink engine and prints per-link estimates without re-simulating.
//
// Usage:
//
//	dophy-trace -export trace.jsonl -grid 7 -seconds 600   # simulate & dump
//	dophy-trace -export - | head                           # dump to stdout
//	dophy-trace -analyze trace.jsonl -grid 7               # replay & estimate
//
// The -grid/-seed options of -analyze must match the exporting run: the
// decoder needs the topology's neighbour tables. A journal that does not fit
// the topology is rejected at its first bad record.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"dophy/internal/collect"
	"dophy/internal/core"
	"dophy/internal/experiment"
	"dophy/internal/journal"
	"dophy/internal/sim"
	"dophy/internal/topo"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args and exports or analyses a trace. It returns the exit
// code: 2 for a usage error, 1 if the export or the analysis fails, 0
// otherwise.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dophy-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		export  = fs.String("export", "", "simulate and write journeys to this file ('-' = stdout)")
		analyze = fs.String("analyze", "", "replay journeys from this file through the Dophy sink")
		grid    = fs.Int("grid", 7, "grid side of the (shared) topology")
		seed    = fs.Uint64("seed", 1, "scenario / topology seed")
		seconds = fs.Float64("seconds", 600, "simulated seconds to export")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var err error
	switch {
	case *export != "" && *analyze != "":
		fmt.Fprintln(stderr, "dophy-trace: use either -export or -analyze, not both")
		return 2
	case *export != "":
		err = doExport(*export, *grid, *seed, *seconds, stdout, stderr)
	case *analyze != "":
		err = doAnalyze(*analyze, *grid, *seed, stdout)
	default:
		fs.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "dophy-trace:", err)
		return 1
	}
	return 0
}

// scenario is the deployment an exporting run simulates; an analyzing run
// rebuilds its topology to decode against identical neighbour tables.
func scenario(grid int, seed uint64) experiment.Scenario {
	sc := experiment.DefaultScenario()
	sc.Seed = seed
	sc.Topo = experiment.GridSpec(grid)
	return sc
}

func doExport(path string, grid int, seed uint64, seconds float64, stdout, stderr io.Writer) error {
	out := stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	w := journal.NewWriter(out)

	sc := scenario(grid, seed)
	sc.EpochLen = sim.Time(seconds)
	sc.Epochs = 1
	sess := experiment.NewSession(sc)
	var writeErr error
	sess.SubscribeJourneys(func(j *collect.PacketJourney) {
		if writeErr == nil {
			writeErr = w.Write(j)
		}
	})
	sess.RunEpoch()
	if writeErr != nil {
		return writeErr
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "dophy-trace: exported %d journeys\n", w.Count())
	return nil
}

func doAnalyze(path string, grid int, seed uint64, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	tp, _, _ := scenario(grid, seed).Deploy()
	cfg := core.DefaultConfig()
	d := core.New(tp, cfg)
	r := journal.NewReader(f)
	var journeys, delivered int64
	for {
		j, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		journeys++
		if err := fits(tp, cfg.MaxAttempts, j); err != nil {
			return fmt.Errorf("record %d does not fit the %d-node topology (do -grid and -seed match the export?): %w",
				journeys, tp.N(), err)
		}
		if j.Delivered {
			delivered++
		}
		d.OnJourney(j)
	}
	rep := d.EndEpoch()
	fmt.Fprintf(stdout, "replayed %d journeys (%d delivered); decode errors: %d\n",
		journeys, delivered, rep.DecodeErrors)
	fmt.Fprintf(stdout, "annotation: %.2f bytes/packet\n\n", rep.Overhead.BytesPerPacket())
	links := rep.SortedLinks()
	fmt.Fprintf(stdout, "%-10s  %-9s  %-8s  %s\n", "link", "est-loss", "stderr", "samples")
	for _, l := range links {
		est, _ := rep.At(l)
		fmt.Fprintf(stdout, "%-10s  %-9.4f  %-8.4f  %d\n", l, est.Loss, est.StdErr, est.Samples)
	}
	lossOf := func(l topo.Link) float64 {
		est, _ := rep.At(l)
		return est.Loss
	}
	sort.Slice(links, func(i, j int) bool { return lossOf(links[i]) > lossOf(links[j]) })
	if len(links) > 0 {
		worst := links[0]
		fmt.Fprintf(stdout, "\nworst link: %s at %.3f loss\n", worst, lossOf(worst))
	}
	return nil
}

// fits checks that a journey read from a journal could have happened on tp
// under a budget of maxAttempts per hop: its origin and hops lie inside the
// topology, each hop is a link, the hops chain from the origin, no hop was
// first received after the budget ran out, and a delivered journey ends at
// the sink. The Dophy engine assumes all of this of every journey it is fed.
func fits(tp *topo.Topology, maxAttempts int, j *collect.PacketJourney) error {
	n := topo.NodeID(tp.N())
	if j.Origin >= n {
		return fmt.Errorf("origin %d is outside the topology", j.Origin)
	}
	at := j.Origin
	for i, h := range j.Hops {
		l := h.Link
		switch {
		case l.From >= n || l.To >= n:
			return fmt.Errorf("hop %d (%v) leaves the topology", i, l)
		case tp.LinkTable().Index(l) < 0:
			return fmt.Errorf("hop %d (%v) is not a link", i, l)
		case l.From != at:
			return fmt.Errorf("hop %d (%v) does not continue from node %d", i, l, at)
		case h.Observed > maxAttempts:
			return fmt.Errorf("hop %d (%v) was received on attempt %d of at most %d", i, l, h.Observed, maxAttempts)
		}
		at = l.To
	}
	if j.Delivered && at != topo.Sink {
		return fmt.Errorf("delivered journey ends at node %d, not the sink", at)
	}
	return nil
}
