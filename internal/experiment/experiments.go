package experiment

import (
	"fmt"
	"sort"
	"strings"

	"dophy/internal/sim"
	"dophy/internal/stats"
)

// Table is one experiment's printable result (a paper table or the data
// series behind a figure).
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

func f(v float64) string  { return fmt.Sprintf("%.4f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// overheadSchemes is the T1/T11 comparison set, best-first.
var overheadSchemes = []string{SchemeDophy, SchemeDophyNA, SchemeHuffman, SchemeCompact, SchemeRaw}

// accuracySchemes is the F2-F5, T6 and F7-F9 comparison set.
var accuracySchemes = []string{SchemeDophy, SchemeMINC, SchemeLSQ}

// T1 measures encoding overhead (bytes/packet) versus network size.
func T1(seed uint64, o RunOptions) *Table {
	t := &Table{
		ID:      "T1",
		Title:   "Encoding overhead (bytes/packet) vs network size",
		Columns: append([]string{"nodes", "avg-hops"}, overheadSchemes...),
		Notes: []string{
			"bytes/packet = (annotation + origin header) / delivered packets",
			"claim: arithmetic coding (dophy) < huffman < compact < raw at every size",
		},
	}
	sides := []int{7, 10, 15, 20}
	scs := make([]Scenario, len(sides))
	for i, side := range sides {
		sc := DefaultScenario()
		sc.Name = fmt.Sprintf("t1-%d", side*side)
		sc.Seed = seed + uint64(side)
		sc.Topo = GridSpec(side)
		sc.Epochs = 2
		sc.EpochLen = 200
		sc.Schemes = Codecs
		scs[i] = sc
	}
	for i, res := range RunAll(scs, o) {
		row := []string{
			fmt.Sprintf("%d", sides[i]*sides[i]),
			f2(res.Topology.Summary().AvgHops),
		}
		for _, s := range overheadSchemes {
			row = append(row, f2(res.MeanBitsPerPacket(s)/8))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// F1 measures per-packet encoding overhead versus path length.
func F1(seed uint64, o RunOptions) *Table {
	t := &Table{
		ID:      "F1",
		Title:   "Dophy annotation size (bytes) vs path length",
		Columns: []string{"hops", "packets", "dophy-bytes", "compact-bytes", "raw-bytes"},
		Notes: []string{
			"dophy column is measured per packet; compact/raw are their fixed per-hop costs",
			"claim: dophy grows by well under a byte per hop",
		},
	}
	sc := DefaultScenario()
	sc.Name = "f1"
	sc.Seed = seed
	sc.Topo = GridSpec(12) // deep network for long paths
	sc.Epochs = 2
	sc.EpochLen = 250
	sc.Schemes = Codecs
	res := Run(sc)
	// Bucket Dophy's per-packet bits by hop count.
	byHops := map[int][]float64{}
	for _, eo := range res.Epochs {
		for _, ps := range eo.PerPacket {
			byHops[ps.Hops] = append(byHops[ps.Hops], float64(ps.DophyBits))
		}
	}
	var hops []int
	for h := range byHops {
		hops = append(hops, h)
	}
	sort.Ints(hops)
	// Per-hop fixed widths for compact on this topology: varies per node;
	// report the measured mean instead.
	compactPerHop := meanBitsPerHop(res, SchemeCompact)
	rawPerHop := meanBitsPerHop(res, SchemeRaw)
	for _, h := range hops {
		samples := byHops[h]
		if len(samples) < 10 {
			continue
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", h),
			fmt.Sprintf("%d", len(samples)),
			f2(stats.Mean(samples) / 8),
			f2(compactPerHop * float64(h) / 8),
			f2(rawPerHop * float64(h) / 8),
		})
	}
	return t
}

func meanBitsPerHop(res *RunResult, scheme string) float64 {
	var bits, hops int64
	for _, eo := range res.Epochs {
		se := eo.scheme(scheme)
		bits += se.AnnotationBits
		hops += se.Hops
	}
	if hops == 0 {
		return 0
	}
	return float64(bits) / float64(hops)
}

// F2 measures estimation accuracy versus traffic volume per epoch.
func F2(seed uint64, o RunOptions) *Table {
	t := &Table{
		ID:      "F2",
		Title:   "Per-link loss MAE vs packets received per epoch",
		Columns: append([]string{"epoch-len(s)", "pkts/epoch"}, accuracySchemes...),
		Notes: []string{
			"claim: dophy converges quickly with traffic; delivery-ratio baselines stay coarse",
		},
	}
	lens := []float64{60, 150, 300, 600, 1200}
	scs := make([]Scenario, len(lens))
	for i, el := range lens {
		sc := DefaultScenario()
		sc.Name = fmt.Sprintf("f2-%.0f", el)
		sc.Seed = seed + uint64(el)
		sc.EpochLen = sim.Time(el)
		sc.Epochs = 3
		sc.Schemes = Baselines
		scs[i] = sc
	}
	for i, res := range RunAll(scs, o) {
		row := []string{f1(lens[i]), f1(res.MeanPacketsPerEpoch)}
		for _, s := range accuracySchemes {
			row = append(row, f(res.MeanAccuracy(s).MAE))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// F3 measures accuracy versus routing dynamics (forced parent churn).
func F3(seed uint64, o RunOptions) *Table {
	t := &Table{
		ID:      "F3",
		Title:   "Per-link loss MAE vs routing dynamics",
		Columns: append([]string{"churn-prob", "parent-chg/node/epoch"}, accuracySchemes...),
		Notes: []string{
			"churn-prob: probability per beacon of re-picking a random admissible parent",
			"claim: dophy is insensitive to path dynamics; static-path baselines degrade",
		},
	}
	t.Notes = append(t.Notes,
		"MaxRetx=1 here so end-to-end delivery carries signal: at zero churn the",
		"static-path baselines are at their best, isolating the dynamics effect")
	churns := []float64{0, 0.05, 0.15, 0.3, 0.5}
	scs := make([]Scenario, len(churns))
	for i, churn := range churns {
		sc := DefaultScenario()
		sc.Name = fmt.Sprintf("f3-%.2f", churn)
		sc.Seed = seed // identical network across rows; only churn varies
		sc.Routing.RandomizeParentProb = churn
		// Give the baselines their best case: a small retry budget makes
		// end-to-end loss observable, a long epoch gives them samples, and
		// strong hysteresis quiets natural churn so the knob controls the
		// x-axis.
		sc.Mac.MaxRetx = 1
		sc.Routing.Hysteresis = 3
		sc.Routing.AlphaData = 0.05 // smooth estimator: quasi-static at churn 0
		sc.Routing.AlphaBeacon = 0.1
		sc.EpochLen = 600
		sc.Epochs = 3
		sc.Schemes = Baselines
		scs[i] = sc
	}
	for i, res := range RunAll(scs, o) {
		row := []string{f2(churns[i]), f2(res.ParentChangesPerNodePerEpoch)}
		for _, s := range accuracySchemes {
			row = append(row, f(res.MeanAccuracy(s).MAE))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// F4 measures accuracy versus the overall link-loss level.
func F4(seed uint64, o RunOptions) *Table {
	t := &Table{
		ID:      "F4",
		Title:   "Per-link loss MAE vs mean link loss",
		Columns: append([]string{"true-loss"}, accuracySchemes...),
		Notes: []string{
			"uniform per-link loss so the x-axis is exact",
			"claim: dophy stays accurate across loss regimes",
		},
	}
	losses := []float64{0.05, 0.1, 0.2, 0.3}
	scs := make([]Scenario, len(losses))
	for i, loss := range losses {
		sc := DefaultScenario()
		sc.Name = fmt.Sprintf("f4-%.2f", loss)
		sc.Seed = seed + uint64(loss*100)
		sc.Radio = RadioSpec{Kind: RadioUniformLoss, UniformLoss: loss}
		sc.Epochs = 3
		sc.Schemes = Baselines
		scs[i] = sc
	}
	for i, res := range RunAll(scs, o) {
		row := []string{f2(losses[i])}
		for _, s := range accuracySchemes {
			row = append(row, f(res.MeanAccuracy(s).MAE))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// F5 produces the CDF of absolute per-link error for each scheme.
func F5(seed uint64, o RunOptions) *Table {
	t := &Table{
		ID:      "F5",
		Title:   "CDF of absolute per-link loss error",
		Columns: append([]string{"percentile"}, accuracySchemes...),
		Notes: []string{
			"error value at each percentile of the per-link |error| distribution",
		},
	}
	sc := DefaultScenario()
	sc.Name = "f5"
	sc.Seed = seed
	sc.Epochs = 4
	sc.Schemes = Baselines
	res := Run(sc)
	errsBy := map[string][]float64{}
	for _, eo := range res.Epochs {
		for _, s := range accuracySchemes {
			errsBy[s] = appendErrors(errsBy[s], eo.scheme(s), eo.Truth, sc.MinTruthAttempts)
		}
	}
	for _, s := range accuracySchemes {
		sort.Float64s(errsBy[s])
	}
	for _, pct := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
		row := []string{f2(pct)}
		for _, s := range accuracySchemes {
			if len(errsBy[s]) == 0 {
				row = append(row, "n/a")
				continue
			}
			row = append(row, f(stats.Quantile(errsBy[s], pct)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// T2 sweeps the symbol-aggregation threshold (optimisation 1).
func T2(seed uint64, o RunOptions) *Table {
	t := &Table{
		ID:      "T2",
		Title:   "Aggregation threshold: overhead vs accuracy (optimisation 1)",
		Columns: []string{"threshold", "symbols", "bytes/pkt", "MAE", "coverage"},
		Notes: []string{
			"threshold 0 = no aggregation (full alphabet)",
			"claim: aggregation trims overhead with negligible accuracy cost",
		},
	}
	thresholds := []int{0, 2, 3, 4, 6}
	scs := make([]Scenario, len(thresholds))
	for i, thr := range thresholds {
		sc := DefaultScenario()
		sc.Name = fmt.Sprintf("t2-%d", thr)
		sc.Seed = seed // identical realisation across thresholds
		sc.Dophy.AggThreshold = thr
		sc.Epochs = 3
		scs[i] = sc
	}
	for i, res := range RunAll(scs, o) {
		thr := thresholds[i]
		acc := res.MeanAccuracy(SchemeDophy)
		symbols := scs[i].schemeConfigs().dophy.MaxAttempts
		if thr > 0 {
			symbols = thr + 1
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", thr),
			fmt.Sprintf("%d", symbols),
			f2(res.MeanBitsPerPacket(SchemeDophy) / 8),
			f(acc.MAE),
			f2(acc.Coverage),
		})
	}
	return t
}

// T3 sweeps the model-update period (optimisation 2) under drifting links.
func T3(seed uint64, o RunOptions) *Table {
	t := &Table{
		ID:      "T3",
		Title:   "Model update period: total overhead under link drift (optimisation 2)",
		Columns: []string{"update-every", "annot-bytes/pkt", "dissem-bytes/pkt", "total-bytes/pkt", "MAE"},
		Notes: []string{
			"update-every in epochs; 0 = never update (stale prior forever)",
			"links drift (random walk), so the count distribution moves away from any stale model",
			"claim: periodic updates minimise total (in-packet + dissemination) overhead",
		},
	}
	periods := []int{0, 1, 2, 4, 8}
	scs := make([]Scenario, len(periods))
	for i, ue := range periods {
		sc := DefaultScenario()
		sc.Name = fmt.Sprintf("t3-%d", ue)
		sc.Seed = seed
		sc.Radio = RadioSpec{Kind: RadioRandomWalk, WalkStep: 0.35, WalkEvery: 5}
		sc.Dophy.UpdateEvery = ue
		sc.Epochs = 8
		sc.EpochLen = 200
		scs[i] = sc
	}
	for i, res := range RunAll(scs, o) {
		annot := res.MeanBitsPerPacket(SchemeDophy) / 8
		total := res.TotalBitsPerPacket(SchemeDophy) / 8
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", periods[i]),
			f2(annot),
			f2(total - annot),
			f2(total),
			f(res.MeanAccuracy(SchemeDophy).MAE),
		})
	}
	return t
}

// F6 validates the simulator against analytic ARQ formulas.
func F6(seed uint64, o RunOptions) *Table {
	t := &Table{
		ID:      "F6",
		Title:   "Simulator validation: measured vs analytic ARQ behaviour",
		Columns: []string{"loss", "deliv-meas", "deliv-analytic", "meanT-meas", "meanT-analytic"},
		Notes: []string{
			"single-hop chain, uniform loss; delivery = 1-loss^M, meanT = truncated-geometric mean",
		},
	}
	losses := []float64{0.1, 0.3, 0.5, 0.7}
	scs := make([]Scenario, len(losses))
	for i, loss := range losses {
		sc := DefaultScenario()
		sc.Name = fmt.Sprintf("f6-%.1f", loss)
		sc.Seed = seed + uint64(loss*10)
		sc.Topo = TopoSpec{Kind: TopoChain, N: 2, Spacing: 10, Range: 11}
		sc.Radio = RadioSpec{Kind: RadioUniformLoss, UniformLoss: loss}
		sc.Collect.GenPeriod = 0.5
		sc.Epochs = 1
		sc.EpochLen = 3000
		scs[i] = sc
	}
	for i, res := range RunAll(scs, o) {
		loss := losses[i]
		truth := res.Epochs[0].Truth
		measuredDeliv := truth.DeliveryRatio()
		m := scs[i].Mac.MaxRetx + 1
		analyticDeliv := 1 - pow(loss, m)
		// Analytic truncated-geometric mean attempts for delivered packets.
		p := 1 - loss
		var num, den float64
		for k := 1; k <= m; k++ {
			pk := pow(loss, k-1) * p
			num += float64(k) * pk
			den += pk
		}
		analyticMean := num / den
		// Measured mean from ground truth: on a single-hop chain every data
		// attempt belongs to the one link, dropped packets burned exactly m
		// attempts each, so delivered packets used the remainder.
		var sumT, nT float64
		for _, c := range truth.Counts {
			if c.DataAttempts > 0 && truth.Delivered > 0 {
				sumT = float64(c.DataAttempts) - float64(truth.Dropped)*float64(m)
				nT = float64(truth.Delivered)
			}
		}
		measuredMean := sumT / nT
		t.Rows = append(t.Rows, []string{
			f2(loss), f(measuredDeliv), f(analyticDeliv), f2(measuredMean), f2(analyticMean),
		})
	}
	return t
}

func pow(x float64, n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= x
	}
	return out
}

// Runner is one experiment entry in the registry.
type Runner struct {
	ID    string
	Title string
	Run   func(seed uint64, o RunOptions) *Table
}

// All returns the experiment registry in presentation order.
func All() []Runner {
	return []Runner{
		{"T1", "encoding overhead vs network size", T1},
		{"F1", "overhead vs path length", F1},
		{"F2", "accuracy vs traffic volume", F2},
		{"F3", "accuracy vs routing dynamics", F3},
		{"F4", "accuracy vs loss level", F4},
		{"F5", "error CDF", F5},
		{"T2", "aggregation threshold sweep", T2},
		{"T3", "model update period sweep", T3},
		{"F6", "simulator validation", F6},
		{"T5", "hop-identity model ablation (extension)", T5},
		{"T6", "retry-budget visibility sweep (extension)", T6},
		{"F7", "node failures (extension)", F7},
		{"F8", "bursty losses (extension)", F8},
		{"F9", "congestion / queue drops (extension)", F9},
		{"T7", "annotation source under ACK loss (extension)", T7},
		{"T8", "estimator calibration (extension)", T8},
		{"T9", "beacon pacing: fixed vs Trickle (extension)", T9},
		{"T10", "distributed encoding path cost (extension)", T10},
		{"T11", "energy cost of annotations (extension)", T11},
		{"F10", "estimation window: reset vs forgetting (extension)", F10},
	}
}
