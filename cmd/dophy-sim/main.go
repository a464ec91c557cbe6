// dophy-sim runs a single simulated deployment and prints per-epoch
// summaries plus the final per-link estimates against ground truth. It is
// the quickest way to watch Dophy work.
//
// Usage examples:
//
//	dophy-sim                          # 49-node grid, 3 epochs
//	dophy-sim -grid 10 -epochs 5       # 100 nodes
//	dophy-sim -nodes 60 -dynamics drift
//	dophy-sim -churn 0.3 -baselines    # heavy path dynamics, compare schemes
//	dophy-sim -links                   # dump per-link estimates
//	dophy-sim -json -links             # machine-readable epochs
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"dophy"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the simulation and prints its report to stdout. It
// returns the exit code: 2 for a usage error, 1 if the simulation cannot be
// built or its output written, 0 otherwise.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dophy-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		grid      = fs.Int("grid", 7, "grid side (nodes = side^2); 0 to use -nodes")
		nodes     = fs.Int("nodes", 0, "uniform random placement with this many nodes")
		seed      = fs.Uint64("seed", 1, "scenario seed")
		epochs    = fs.Int("epochs", 3, "estimation epochs to run")
		epochLen  = fs.Float64("epoch-seconds", 300, "epoch length in simulated seconds")
		genPeriod = fs.Float64("gen-period", 5, "per-node data generation period (s)")
		maxRetx   = fs.Int("max-retx", 7, "MAC retransmission budget, at least 1")
		agg       = fs.Int("agg", 3, "symbol aggregation threshold (0 means the default, 3)")
		update    = fs.Int("update-every", 1, "model update period in epochs")
		churn     = fs.Float64("churn", 0, "forced parent churn probability per beacon")
		dynamics  = fs.String("dynamics", "static", "link dynamics: static | drift | bursty")
		uniform   = fs.Float64("uniform-loss", 0, "force identical loss on all links (0 = realistic)")
		baselines = fs.Bool("baselines", false, "also run traditional tomography baselines")
		links     = fs.Bool("links", false, "print per-link estimates for the final epoch")
		jsonOut   = fs.Bool("json", false, "emit one JSON object per epoch instead of text")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "dophy-sim: "+format+"\n", a...)
		return 2
	}
	// The library reads a zero MaxRetx, EpochSeconds, GenPeriodSeconds or
	// UpdateEvery as "use the default", so a zero flag would silently run
	// the default (7 retransmissions, 300 s, 5 s, every epoch).
	if *maxRetx < 1 {
		return usage("-max-retx must be at least 1, got %d", *maxRetx)
	}
	if !(*epochLen > 0) {
		return usage("-epoch-seconds must be positive, got %v", *epochLen)
	}
	if !(*genPeriod > 0) {
		return usage("-gen-period must be positive, got %v", *genPeriod)
	}
	if *update < 1 {
		return usage("-update-every must be at least 1, got %d", *update)
	}

	opt := dophy.Options{
		Seed:             *seed,
		MaxRetx:          *maxRetx,
		GenPeriodSeconds: *genPeriod,
		EpochSeconds:     *epochLen,
		AggThreshold:     *agg,
		UpdateEvery:      *update,
		ParentChurn:      *churn,
		UniformLoss:      *uniform,
		CompareBaselines: *baselines,
	}
	if *nodes > 0 {
		opt.Nodes = *nodes
	} else {
		opt.GridSide = *grid
	}
	switch *dynamics {
	case "static":
		opt.Dynamics = dophy.DynamicsStatic
	case "drift":
		opt.Dynamics = dophy.DynamicsDrift
	case "bursty":
		opt.Dynamics = dophy.DynamicsBursty
	default:
		return usage("unknown dynamics %q", *dynamics)
	}

	sim, err := dophy.NewSimulation(opt)
	if err != nil {
		fmt.Fprintln(stderr, "dophy-sim:", err)
		return 1
	}
	if *jsonOut {
		if err := runJSON(stdout, sim, *epochs, *links); err != nil {
			fmt.Fprintln(stderr, "dophy-sim:", err)
			return 1
		}
		return 0
	}
	runText(stdout, sim, *epochs, *links, *baselines)
	return 0
}

// runText runs epochs epochs and writes the human-readable report to w: the
// topology summary, one row per epoch (plus the baselines' MAE when
// baselines is set) and, when links is set, the final epoch's per-link
// table in ascending (From, To) order.
func runText(w io.Writer, sim *dophy.Simulation, epochs int, links, baselines bool) {
	info := sim.Topology()
	fmt.Fprintf(w, "topology: %d nodes, %d directed links, avg degree %.1f, avg hops %.1f (max %d)\n\n",
		info.Nodes, info.Links, info.AvgDegree, info.AvgHops, info.MaxHops)

	fmt.Fprintf(w, "%-6s  %-9s  %-9s  %-9s  %-10s  %-10s\n",
		"epoch", "MAE", "coverage", "bytes/pkt", "delivery", "churn/node")
	var last *dophy.Report
	for e := 0; e < epochs; e++ {
		rep := sim.RunEpoch()
		last = rep
		fmt.Fprintf(w, "%-6d  %-9.4f  %-9.2f  %-9.2f  %-10.4f  %-10.2f\n",
			rep.Epoch, rep.MAE, rep.Coverage, rep.BytesPerPacket, rep.DeliveryRatio, rep.ParentChangesPerNode)
		if rep.DecodeErrors > 0 {
			fmt.Fprintf(os.Stderr, "dophy-sim: %d decode errors!\n", rep.DecodeErrors)
		}
		if baselines {
			for _, name := range []string{"minc", "lsq"} {
				fmt.Fprintf(w, "        baseline %-5s MAE %.4f\n", name, rep.BaselineMAE[name])
			}
		}
	}

	if links && last != nil {
		fmt.Fprintln(w, "\nper-link estimates (final epoch):")
		var ls []dophy.Link
		for l := range last.Estimates {
			ls = append(ls, l)
		}
		sort.Slice(ls, func(i, j int) bool {
			if ls[i].From != ls[j].From {
				return ls[i].From < ls[j].From
			}
			return ls[i].To < ls[j].To
		})
		fmt.Fprintf(w, "%-10s  %-9s  %-9s  %-8s  %s\n", "link", "est-loss", "true", "stderr", "samples")
		for _, l := range ls {
			est := last.Estimates[l]
			truth, ok := last.TrueLoss[l]
			truthStr := "   -"
			if ok {
				truthStr = fmt.Sprintf("%.4f", truth)
			}
			fmt.Fprintf(w, "%-10s  %-9.4f  %-9s  %-8.4f  %d\n", l, est.Loss, truthStr, est.StdErr, est.Samples)
		}
	}
}

// epochJSON is the stable machine-readable per-epoch shape. A value that
// does not exist for the epoch is omitted rather than faked: mae and a
// baseline's MAE when nothing could be scored, delivery_ratio when the
// epoch generated no packets.
type epochJSON struct {
	Epoch          int                 `json:"epoch"`
	MAE            *float64            `json:"mae,omitempty"`
	Coverage       float64             `json:"coverage"`
	BytesPerPacket float64             `json:"bytes_per_packet"`
	DeliveryRatio  *float64            `json:"delivery_ratio,omitempty"`
	Generated      int64               `json:"generated"`
	ParentChanges  float64             `json:"parent_changes_per_node"`
	DecodeErrors   int64               `json:"decode_errors"`
	BaselineMAE    map[string]float64  `json:"baseline_mae,omitempty"`
	Links          map[string]linkJSON `json:"links,omitempty"`
}

type linkJSON struct {
	Loss    float64  `json:"loss"`
	StdErr  float64  `json:"stderr"`
	Samples int64    `json:"samples"`
	True    *float64 `json:"true,omitempty"`
}

// runJSON runs epochs epochs and writes one JSON object per epoch to w.
func runJSON(w io.Writer, sim *dophy.Simulation, epochs int, withLinks bool) error {
	enc := json.NewEncoder(w)
	for e := 0; e < epochs; e++ {
		rep := sim.RunEpoch()
		out := epochJSON{
			Epoch:          rep.Epoch,
			Coverage:       rep.Coverage,
			BytesPerPacket: rep.BytesPerPacket,
			Generated:      rep.Generated,
			ParentChanges:  rep.ParentChangesPerNode,
			DecodeErrors:   rep.DecodeErrors,
		}
		if !math.IsNaN(rep.MAE) {
			out.MAE = &rep.MAE
		}
		if rep.Generated > 0 {
			out.DeliveryRatio = &rep.DeliveryRatio
		}
		for k, v := range rep.BaselineMAE {
			if math.IsNaN(v) {
				continue
			}
			if out.BaselineMAE == nil {
				out.BaselineMAE = make(map[string]float64, len(rep.BaselineMAE))
			}
			out.BaselineMAE[k] = v
		}
		if withLinks {
			out.Links = make(map[string]linkJSON, len(rep.Estimates))
			for l, est := range rep.Estimates {
				lj := linkJSON{Loss: est.Loss, StdErr: est.StdErr, Samples: est.Samples}
				if tv, ok := rep.TrueLoss[l]; ok {
					tvCopy := tv
					lj.True = &tvCopy
				}
				out.Links[l.String()] = lj
			}
		}
		if err := enc.Encode(out); err != nil {
			return err
		}
	}
	return nil
}
