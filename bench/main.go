// Command bench is the repository's benchmark of record. It runs named
// workloads through the simulation stack, each pass in a fresh child
// process, checks the outputs, and prints every metric by name and unit.
//
//	bash bench/run.sh --workload drift-estimate --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --seed 1                      # every workload in turn
//	bash bench/run.sh --seed 1 --trace trace.json   # traced run, spans to trace.json
//
// An untraced run (--trace 0) reports the end-to-end metrics. A traced run
// (--trace 1, or --trace with a file name) rebuilds the facade stack from
// each layer's exported constructor, times the calls into every layer and
// reports the per-layer metrics. The last line of a workload's output is a
// JSON object {correct, attempted, failed, metrics}. See bench/README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// childTimeout bounds one child pass; a pass normally takes seconds.
const childTimeout = 60 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: all, one after another)")
	seed := fs.Uint64("seed", 1, "input seed; 0 means 1")
	seconds := fs.Float64("seconds", 15, "measurement budget per workload, in seconds")
	traceArg := fs.String("trace", "0", "0: end-to-end run; 1: traced run; a file name: traced run that writes its spans there")
	child := fs.String("child", "", "run one pass in this process and print it as JSON: untraced or traced")
	network := fs.Int("network", 0, "with -child: the deployment to run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *child != "" {
		return runChild(*child, *name, *seed, *network, stdout, stderr)
	}
	traced, tracePath := *traceArg != "0", ""
	if traced && *traceArg != "1" {
		tracePath = *traceArg
	}
	selected := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		selected = []*workload{w}
	}
	var traces []traceFile
	for _, w := range selected {
		rep := measure(w, *seed, *seconds, traced, stderr)
		rep.print(stdout)
		if traced && len(rep.traced) > 0 {
			traces = append(traces, traceFile{Workload: w.name, Seed: *seed, Spans: rep.traced[0].Spans})
		}
	}
	if tracePath != "" {
		data, err := json.Marshal(traces)
		if err == nil {
			err = os.WriteFile(tracePath, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: writing spans: %v\n", err)
			return 1
		}
	}
	return 0
}

// traceFile is one workload's spans as written to the --trace file.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
}

// runChild runs one pass and prints its result as one JSON line.
func runChild(mode, name string, seed uint64, network int, stdout, stderr io.Writer) int {
	w, err := findWorkload(name)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	var res *passResult
	switch {
	case mode == "untraced" && w.sharded:
		res, err = shardedPass(w, seed, network, nil)
	case mode == "untraced":
		res, err = facadePass(w, seed, network)
	case mode == "traced" && w.sharded:
		res, err = shardedPass(w, seed, network, newTraceRec(w.epochs, true))
	case mode == "traced":
		res, err = tracedFacadePass(w, seed, network)
	default:
		err = fmt.Errorf("unknown child mode %q", mode)
	}
	if err == nil {
		err = json.NewEncoder(stdout).Encode(res)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// spawn runs one pass in a fresh child process and waits for it.
func spawn(w *workload, seed uint64, network int, traced bool, stderr io.Writer) (*passResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", mode, "-workload", w.name,
		"-seed", strconv.FormatUint(seed, 10), "-network", strconv.Itoa(network))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s pass of %s deployment %d: %w", mode, w.name, network, err)
	}
	var res passResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("%s pass of %s deployment %d: %w", mode, w.name, network, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.MaxRSSKB = ru.Maxrss // KiB on Linux
	}
	return &res, nil
}

// report is one workload's run: its passes and the checks across them.
type report struct {
	w        *workload
	seed     uint64
	untraced []*passResult
	traced   []*passResult
	// lost counts the planned epochs of passes that did not complete.
	lost     int
	problems []string
}

// measure runs the workload's deployments, each pass in a fresh child,
// one after another, so the host serves one closed-loop caller at a time.
// An untraced run makes one pass per deployment, then repeats whole rounds
// while the time budget allows. A traced run makes an untraced and a
// traced pass of each deployment in turn, for at least one deployment and
// while the budget allows.
func measure(w *workload, seed uint64, seconds float64, traced bool, stderr io.Writer) *report {
	rep := &report{w: w, seed: seed}
	budget := int64(seconds * 1e9)
	start := nanos()
	if traced {
		for i := 0; i < w.networks; i++ {
			t0 := nanos()
			if !rep.pass(i, false, stderr) || !rep.pass(i, true, stderr) {
				break
			}
			if now := nanos(); now-start+(now-t0) > budget {
				break
			}
		}
	} else {
		for ok := true; ok; {
			t0 := nanos()
			for i := 0; i < w.networks && ok; i++ {
				ok = rep.pass(i, false, stderr)
			}
			if now := nanos(); now-start+(now-t0) > budget {
				break
			}
		}
	}
	rep.check()
	return rep
}

// pass runs one child pass and files its result; it reports whether the
// child succeeded.
func (r *report) pass(network int, traced bool, stderr io.Writer) bool {
	res, err := spawn(r.w, r.seed, network, traced, stderr)
	if err != nil {
		r.problems = append(r.problems, err.Error())
		r.lost += r.w.epochs
		return false
	}
	if traced {
		r.traced = append(r.traced, res)
	} else {
		r.untraced = append(r.untraced, res)
	}
	return true
}

// check compares the passes: every pass of one deployment repeats one
// input, so its digest and simulated statistics must agree with the
// deployment's first pass.
func (r *report) check() {
	first := map[int]*passResult{}
	for _, p := range r.all() {
		for _, msg := range p.Problems {
			r.problems = append(r.problems, fmt.Sprintf("deployment %d: %s", p.Network, msg))
		}
		f, ok := first[p.Network]
		if !ok {
			first[p.Network] = p
			continue
		}
		if p.Digest != f.Digest {
			r.problems = append(r.problems, fmt.Sprintf("deployment %d: digest %s differs from its first pass's %s", p.Network, p.Digest, f.Digest))
		}
	}
	for _, p := range r.untraced {
		if p.Quality != first[p.Network].Quality {
			r.problems = append(r.problems, fmt.Sprintf("deployment %d: simulated statistics differ between passes", p.Network))
		}
	}
	if len(r.untraced) == 0 {
		r.problems = append(r.problems, "no untraced pass completed")
	}
}

// round returns the first untraced pass of each deployment, in order.
func (r *report) round() []*passResult {
	var out []*passResult
	for _, p := range r.untraced {
		if p.Network == len(out) {
			out = append(out, p)
		}
	}
	return out
}

// digest combines the deployments' digests into the run's.
func (r *report) digest() string {
	d := newDigest()
	for _, p := range r.round() {
		d.h.Write([]byte(p.Digest))
	}
	return d.hex()
}

// quality sums the simulated statistics over one pass per deployment.
func (r *report) quality() quality {
	var q quality
	for _, p := range r.round() {
		q.merge(p.Quality)
	}
	return q
}

func (r *report) all() []*passResult {
	return append(append([]*passResult(nil), r.untraced...), r.traced...)
}

func (r *report) attempted() (attempted, failed int) {
	for _, p := range r.all() {
		attempted += len(p.EpochNs)
		failed += p.Failed
	}
	return attempted + r.lost, failed + r.lost
}

// e2eDefs lists the end-to-end metrics: name, unit and direction.
var e2eDefs = []struct{ name, unit, better string }{
	{"setup_s", "s", "lower"},
	{"epoch_p50_ms", "ms", "lower"},
	{"epoch_p90_ms", "ms", "lower"},
	{"sim_s_per_host_s", "sim_s/s", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
	{"allocs_per_epoch", "count", "lower"},
	{"dophy_mae", "loss", "lower"},
	{"bytes_per_packet", "B", "lower"},
}

// endToEnd computes the end-to-end metrics from the untraced passes, in
// e2eDefs order.
func (r *report) endToEnd() []metricValue {
	var setup, epochMs, rss, allocs []float64
	var hostNs int64
	for _, p := range r.untraced {
		setup = append(setup, p.SetupS...)
		for _, ns := range p.EpochNs {
			epochMs = append(epochMs, float64(ns)/1e6)
			hostNs += ns
		}
		rss = append(rss, float64(p.MaxRSSKB)/1024)
		allocs = append(allocs, ratio(int64(p.Mallocs), int64(len(p.EpochNs))))
	}
	q := r.quality()
	values := []float64{
		median(setup),
		percentile(epochMs, 50),
		percentile(epochMs, 90),
		float64(len(epochMs)) * r.w.epochSeconds() / secs(hostNs),
		median(rss),
		median(allocs),
		mean(q.DophyMAESum, q.DophyScored),
		mean(q.BytesPerPktSum, q.Epochs),
	}
	out := make([]metricValue, len(e2eDefs))
	for i, d := range e2eDefs {
		out[i] = metricValue{Name: d.name, Unit: d.unit, Value: values[i]}
	}
	return out
}

// layers computes the per-layer metrics: the median over traced passes of
// each metric, plus the tracing overhead against the untraced passes.
func (r *report) layers() []metricValue {
	if len(r.traced) == 0 {
		return nil
	}
	out := append([]metricValue(nil), r.traced[0].Layers...)
	for i := range out {
		xs := make([]float64, 0, len(r.traced))
		for _, p := range r.traced {
			xs = append(xs, p.Layers[i].Value)
		}
		out[i].Value = median(xs)
		if out[i].Name == "bench.tracing_overhead_ratio" {
			out[i].Value = meanEpochNs(r.traced) / meanEpochNs(r.untraced)
		}
	}
	return out
}

func meanEpochNs(ps []*passResult) float64 {
	var sum int64
	n := 0
	for _, p := range ps {
		for _, ns := range p.EpochNs {
			sum += ns
			n++
		}
	}
	return ratio(sum, int64(n))
}

// result is the machine-readable last line of a workload's output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result builds the machine-readable result: the end-to-end metrics for an
// untraced run, the per-layer metrics for a traced one.
func (r *report) result() result {
	attempted, failed := r.attempted()
	res := result{Correct: len(r.problems) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]jsonMetric{}}
	ms := r.endToEnd()
	if len(r.traced) > 0 {
		ms = r.layers()
	}
	for _, m := range ms {
		if m.Detail {
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// JSON has no NaN; an unmeasurable metric fails the run.
			res.Correct = false
			m.Value = 0
		}
		res.Metrics[m.Name] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	return res
}

// print writes the human-readable block, then the JSON result line.
func (r *report) print(out io.Writer) {
	res := r.result()
	fmt.Fprintf(out, "== %s  seed %d  %d untraced + %d traced passes over %d deployments of %d epochs  digest %s\n",
		r.w.name, r.seed, len(r.untraced), len(r.traced), len(r.round()), r.w.epochs, r.digest())
	fmt.Fprintf(out, "   %s\n", r.w.why)
	for i, m := range r.endToEnd() {
		fmt.Fprintf(out, "   %-34s %-14s %-8s %s\n", m.Name, fmtValue(m.Value), m.Unit, e2eDefs[i].better)
	}
	var epochMs []float64
	for _, p := range r.untraced {
		for _, ns := range p.EpochNs {
			epochMs = append(epochMs, float64(ns)/1e6)
		}
	}
	if p, v, n, ok := highPercentile(epochMs); ok {
		fmt.Fprintf(out, "   tail: p%g = %s ms over %d epochs (the highest percentile with >=10 samples beyond it)\n", p, fmtValue(v), n)
	} else {
		fmt.Fprintf(out, "   tail: %d epochs, fewer than 100, so no percentile above the median has 10 samples beyond it\n", n)
	}
	// Printed but not part of the result line: delivery ratio varies too
	// much between deployments to bound, and MINC/LSQ do not run on every
	// workload. The digest holds all of them exactly.
	q := r.quality()
	fmt.Fprintf(out, "   %-34s %-14s %-8s higher\n", "delivery_ratio", naValue(q.DeliverySum, q.Epochs), "ratio")
	fmt.Fprintf(out, "   %-34s %-14s %-8s lower\n", "minc_mae", naValue(q.MincMAESum, q.MincScored), "loss")
	fmt.Fprintf(out, "   %-34s %-14s %-8s lower\n", "lsq_mae", naValue(q.LsqMAESum, q.LsqScored), "loss")
	fmt.Fprintf(out, "   %-34s %-14s %-8s (%d of %d epochs failed)\n", "error_rate",
		fmtValue(ratio(int64(res.Failed), int64(res.Attempted))), "ratio", res.Failed, res.Attempted)
	if len(r.traced) > 0 {
		fmt.Fprintf(out, "   -- per layer (traced; medians over %d traced passes)\n", len(r.traced))
		for _, m := range r.layers() {
			v := fmtValue(m.Value)
			if m.NA {
				v = "n/a"
			}
			note := ""
			if m.Detail {
				note = "per-epoch median"
			}
			fmt.Fprintf(out, "   %-34s %-14s %-8s %s\n", m.Name, v, m.Unit, note)
		}
	}
	for _, p := range r.problems {
		fmt.Fprintf(out, "   CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		line = []byte(fmt.Sprintf(`{"correct": false, "attempted": %d, "failed": %d, "metrics": {}}`, res.Attempted, res.Failed))
	}
	fmt.Fprintf(out, "%s\n", line)
}

func fmtValue(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

func naValue(sum float64, n int) string {
	if n == 0 {
		return "n/a"
	}
	return fmtValue(sum / float64(n))
}
