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
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"dophy"
)

func main() {
	var (
		grid      = flag.Int("grid", 7, "grid side (nodes = side^2); 0 to use -nodes")
		nodes     = flag.Int("nodes", 0, "uniform random placement with this many nodes")
		seed      = flag.Uint64("seed", 1, "scenario seed")
		epochs    = flag.Int("epochs", 3, "estimation epochs to run")
		epochLen  = flag.Float64("epoch-seconds", 300, "epoch length in simulated seconds")
		genPeriod = flag.Float64("gen-period", 5, "per-node data generation period (s)")
		maxRetx   = flag.Int("max-retx", 7, "MAC retransmission budget")
		agg       = flag.Int("agg", 3, "symbol aggregation threshold (0 = off)")
		update    = flag.Int("update-every", 1, "model update period in epochs")
		churn     = flag.Float64("churn", 0, "forced parent churn probability per beacon")
		dynamics  = flag.String("dynamics", "static", "link dynamics: static | drift | bursty")
		uniform   = flag.Float64("uniform-loss", 0, "force identical loss on all links (0 = realistic)")
		baselines = flag.Bool("baselines", false, "also run traditional tomography baselines")
		links     = flag.Bool("links", false, "print per-link estimates for the final epoch")
		jsonOut   = flag.Bool("json", false, "emit one JSON object per epoch instead of text")
	)
	flag.Parse()

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
		fmt.Fprintf(os.Stderr, "dophy-sim: unknown dynamics %q\n", *dynamics)
		os.Exit(2)
	}

	sim, err := dophy.NewSimulation(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dophy-sim:", err)
		os.Exit(1)
	}
	info := sim.Topology()
	if *jsonOut {
		if err := runJSON(os.Stdout, sim, *epochs, *links); err != nil {
			fatalErr(err)
		}
		return
	}
	fmt.Printf("topology: %d nodes, %d directed links, avg degree %.1f, avg hops %.1f (max %d)\n\n",
		info.Nodes, info.Links, info.AvgDegree, info.AvgHops, info.MaxHops)

	fmt.Printf("%-6s  %-9s  %-9s  %-9s  %-10s  %-10s\n",
		"epoch", "MAE", "coverage", "bytes/pkt", "delivery", "churn/node")
	var last *dophy.Report
	for e := 0; e < *epochs; e++ {
		rep := sim.RunEpoch()
		last = rep
		fmt.Printf("%-6d  %-9.4f  %-9.2f  %-9.2f  %-10.4f  %-10.2f\n",
			rep.Epoch, rep.MAE, rep.Coverage, rep.BytesPerPacket, rep.DeliveryRatio, rep.ParentChangesPerNode)
		if rep.DecodeErrors > 0 {
			fmt.Fprintf(os.Stderr, "dophy-sim: %d decode errors!\n", rep.DecodeErrors)
		}
		if *baselines {
			for _, name := range []string{"minc", "lsq"} {
				fmt.Printf("        baseline %-5s MAE %.4f\n", name, rep.BaselineMAE[name])
			}
		}
	}

	if *links && last != nil {
		fmt.Println("\nper-link estimates (final epoch):")
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
		fmt.Printf("%-10s  %-9s  %-9s  %-8s  %s\n", "link", "est-loss", "true", "stderr", "samples")
		for _, l := range ls {
			est := last.Estimates[l]
			truth, ok := last.TrueLoss[l]
			truthStr := "   -"
			if ok {
				truthStr = fmt.Sprintf("%.4f", truth)
			}
			fmt.Printf("%-10s  %-9.4f  %-9s  %-8.4f  %d\n", l, est.Loss, truthStr, est.StdErr, est.Samples)
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

func fatalErr(err error) {
	fmt.Fprintln(os.Stderr, "dophy-sim:", err)
	os.Exit(1)
}
