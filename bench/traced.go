package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"dophy"
	"dophy/internal/collect"
	"dophy/internal/core"
	"dophy/internal/experiment"
	"dophy/internal/mac"
	"dophy/internal/radio"
	"dophy/internal/rng"
	"dophy/internal/routing"
	"dophy/internal/sim"
	"dophy/internal/tomo/epochobs"
	"dophy/internal/tomo/lsq"
	"dophy/internal/tomo/minc"
	"dophy/internal/tomo/pathrecord"
	"dophy/internal/topo"
	"dophy/internal/trace"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. The spans of one epoch share Trace (the epoch number); the
// epoch's root span has Parent -1.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns,omitempty"`
	End    int64  `json:"end_ns,omitempty"`
	Dur    int64  `json:"dur_ns"`
	// Agg marks a per-epoch aggregate of calls made inside sim.Run, which
	// are too many to keep one span each: Count calls with total duration
	// Dur, and no interval.
	Agg   bool  `json:"agg,omitempty"`
	Count int64 `json:"count,omitempty"`
}

// callAgg accumulates the calls folded into one aggregate span.
type callAgg struct{ calls, ns int64 }

// since charges the time from t0 to now to a, and returns now so that
// back-to-back calls can chain one clock read.
func (a *callAgg) since(t0 int64) int64 {
	now := nanos()
	a.ns += now - t0
	a.calls++
	return now
}

// timedModel wraps the radio model handed to one consumer. The stack gets
// two, one for mac (data transmissions) and one for routing (beacons), so
// the two kinds of PRR query are timed apart.
type timedModel struct {
	inner radio.Model
	agg   callAgg
}

func (m *timedModel) PRR(l topo.Link, now sim.Time) float64 {
	t := nanos()
	p := m.inner.PRR(l, now)
	m.agg.since(t)
	return p
}

// timedRouter wraps the routing protocol where collect calls it.
type timedRouter struct {
	inner  *routing.Protocol
	parent callAgg
	result callAgg
	// drops counts ARQ exchanges that exhausted their retries.
	drops int64
}

var _ collect.Router = (*timedRouter)(nil)

func (r *timedRouter) Parent(id topo.NodeID) (topo.NodeID, bool) {
	t := nanos()
	p, ok := r.inner.Parent(id)
	r.parent.since(t)
	return p, ok
}

func (r *timedRouter) OnDataResult(from, to topo.NodeID, res mac.Result) {
	t := nanos()
	r.inner.OnDataResult(from, to, res)
	r.result.since(t)
	if !res.Delivered {
		r.drops++
	}
}

// subscriberSpans names the six journey subscribers, in the order
// experiment.NewSession calls them.
var subscriberSpans = [6]string{
	"core.OnJourney.dophy", "core.OnJourney.dophy-noagg",
	"pathrecord.OnJourney.raw", "pathrecord.OnJourney.compact", "pathrecord.OnJourney.huffman",
	"epochobs.OnJourney",
}

// radioSeedMix is experiment.NewSession's radio-model seed mix.
const radioSeedMix = 0x9e3779b97f4a7c15

// stack is the facade's simulation stack rebuilt from each layer's
// exported constructor, in experiment.NewSession's order, so every RNG
// split lands where the facade's does. The digest comparison with the
// untraced pass checks that it still does.
type stack struct {
	sc     experiment.Scenario
	lt     *topo.LinkTable
	eng    *sim.Engine
	rec    *trace.Recorder
	nw     *collect.Network
	proto  *routing.Protocol
	data   *timedModel
	beacon *timedModel
	router *timedRouter
	subs   [6]callAgg

	dophyEng, dophyNA   *core.Dophy
	raw, compact, huff  *pathrecord.Recorder
	obsCol              *epochobs.Collector
	mincEst             *minc.Estimator
	lsqEst              *lsq.Estimator
	mincOut, lsqOut     []float64
	epoch               int
	lastBeacons, lastQD int64
}

// facadeScenario mirrors dophy.NewSimulation's translation of Options into
// a scenario, for the options the workloads set. It rejects the others
// rather than mirror them wrongly.
func facadeScenario(opt dophy.Options) (experiment.Scenario, error) {
	if opt.Nodes != 0 || opt.UniformLoss != 0 || opt.MaxRetx != 0 || opt.AggThreshold != 0 ||
		opt.UpdateEvery != 0 || opt.FailureMTBF != 0 || opt.GridSide < 2 {
		return experiment.Scenario{}, errors.New("traced rebuild mirrors grid workloads with default coding and MAC options only")
	}
	sc := experiment.DefaultScenario()
	sc.Name = "api"
	if opt.Seed != 0 {
		sc.Seed = opt.Seed
	}
	sc.Topo = experiment.GridSpec(opt.GridSide)
	switch opt.Dynamics {
	case dophy.DynamicsStatic:
	case dophy.DynamicsDrift:
		sc.Radio = experiment.RadioSpec{Kind: experiment.RadioRandomWalk, WalkStep: 0.3, WalkEvery: 5}
	case dophy.DynamicsBursty:
		sc.Radio = experiment.RadioSpec{Kind: experiment.RadioGilbertElliott, MeanGood: 60, MeanBad: 20, BadFactor: 0.3}
	default:
		return experiment.Scenario{}, fmt.Errorf("unknown dynamics %d", opt.Dynamics)
	}
	sc.Collect.QueueCap = opt.QueueCap
	if opt.GenPeriodSeconds > 0 {
		sc.Collect.GenPeriod = sim.Time(opt.GenPeriodSeconds)
	}
	if opt.EpochSeconds > 0 {
		sc.EpochLen = sim.Time(opt.EpochSeconds)
	}
	sc.Dophy.UpdateEvery = 1
	sc.Routing.RandomizeParentProb = opt.ParentChurn
	// The facade probes derived seeds until the topology is connected.
	base := sc.Seed
	for attempt := uint64(0); attempt < 10; attempt++ {
		sc.Seed = base + attempt*0x9e3779b97f4a7c15
		if sc.Topo.Build(rng.New(sc.Seed).Split()).Connected() {
			return sc, nil
		}
	}
	return experiment.Scenario{}, errors.New("no connected topology")
}

// buildStack wires the stack the way experiment.NewSession does, with the
// timing wrappers in place of the radio model and the router.
func buildStack(opt dophy.Options) (*stack, error) {
	sc, err := facadeScenario(opt)
	if err != nil {
		return nil, err
	}
	root := rng.New(sc.Seed)
	tp := sc.Topo.Build(root.Split())
	model := sc.Radio.Build(tp, sc.Seed^radioSeedMix)
	s := &stack{sc: sc, eng: sim.New(), lt: tp.LinkTable(),
		data: &timedModel{inner: model}, beacon: &timedModel{inner: model}}
	s.rec = trace.NewRecorder(s.lt)
	arq := mac.New(sc.Mac, s.data, root.Split(), s.rec)
	s.proto = routing.New(sc.Routing, s.eng, tp, s.beacon, root.Split(), s.rec)
	s.router = &timedRouter{inner: s.proto}
	s.nw = collect.New(sc.Collect, s.eng, tp, arq, s.router, root.Split(), s.rec)

	dcfg := sc.Dophy
	dcfg.MaxAttempts = sc.Mac.MaxRetx + 1
	if dcfg.AggThreshold >= dcfg.MaxAttempts {
		dcfg.AggThreshold = 0
	}
	s.dophyEng = core.New(tp, dcfg)
	naCfg := dcfg
	naCfg.AggThreshold = 0
	s.dophyNA = core.New(tp, naCfg)
	prCfg := func(v pathrecord.Variant) pathrecord.Config {
		c := pathrecord.DefaultConfig(v)
		c.MaxAttempts = dcfg.MaxAttempts
		c.MinSamples = dcfg.MinSamples
		return c
	}
	s.raw = pathrecord.New(tp, prCfg(pathrecord.Raw))
	s.compact = pathrecord.New(tp, prCfg(pathrecord.Compact))
	s.huff = pathrecord.New(tp, prCfg(pathrecord.Huffman))
	s.obsCol = epochobs.New(s.lt)
	mcfg := minc.DefaultConfig()
	mcfg.MaxAttempts = dcfg.MaxAttempts
	lcfg := lsq.DefaultConfig()
	lcfg.MaxAttempts = dcfg.MaxAttempts
	s.mincEst = minc.NewEstimator(s.lt, mcfg)
	s.lsqEst = lsq.NewEstimator(s.lt, lcfg)

	s.nw.Subscribe(func(j *collect.PacketJourney) {
		t := nanos()
		s.dophyEng.OnJourney(j)
		t = s.subs[0].since(t)
		s.dophyNA.OnJourney(j)
		t = s.subs[1].since(t)
		s.raw.OnJourney(j)
		t = s.subs[2].since(t)
		s.compact.OnJourney(j)
		t = s.subs[3].since(t)
		s.huff.OnJourney(j)
		t = s.subs[4].since(t)
		s.obsCol.OnJourney(j)
		s.subs[5].since(t)
	})
	s.proto.Start()
	s.eng.Run(sc.Warmup)
	s.rec.Cut() // discard warmup ground truth
	s.nw.Start()
	return s, nil
}

// runEpoch runs one traced epoch: the calls RunEpoch makes, each inside a
// span, then the facade's harvest into o.
func (s *stack) runEpoch(r *traceRec, res *passResult, o *epochOut) {
	events0 := s.eng.Processed()
	root := r.begin("epoch", -1)
	s.epoch++
	sp := r.begin("sim.Run", root)
	s.eng.Run(s.sc.Warmup + sim.Time(s.epoch)*s.sc.EpochLen)
	r.end(sp)
	r.fold(sp, "radio.PRR.data", &s.data.agg)
	r.fold(sp, "radio.PRR.beacon", &s.beacon.agg)
	r.parentCalls += r.fold(sp, "routing.Parent", &s.router.parent)
	r.resultCalls += r.fold(sp, "routing.OnDataResult", &s.router.result)
	for i := range s.subs {
		r.fold(sp, subscriberSpans[i], &s.subs[i])
	}
	r.pending += int64(s.eng.Pending())

	sp = r.begin("trace.Cut", root)
	truth := s.rec.Cut()
	r.end(sp)
	sp = r.begin("core.EndEpoch.dophy", root)
	rep := s.dophyEng.EndEpoch()
	r.end(sp)
	sp = r.begin("core.EndEpoch.dophy-noagg", root)
	s.dophyNA.EndEpoch()
	r.end(sp)
	sp = r.begin("pathrecord.EndEpoch.raw", root)
	s.raw.EndEpoch()
	r.end(sp)
	sp = r.begin("pathrecord.EndEpoch.compact", root)
	s.compact.EndEpoch()
	r.end(sp)
	sp = r.begin("pathrecord.EndEpoch.huffman", root)
	s.huff.EndEpoch()
	r.end(sp)
	sp = r.begin("epochobs.EndEpoch", root)
	obs := s.obsCol.EndEpoch()
	r.end(sp)

	m0 := mallocs()
	sp = r.begin("minc.Estimate", root)
	mLoss := s.mincEst.Estimate(obs)
	r.end(sp)
	r.mincMallocs += int64(mallocs() - m0)
	s.mincOut = append(s.mincOut[:0], mLoss...)
	mst := s.mincEst.LastStats()
	r.mincCalls++
	r.mincIters += int64(mst.Iters)
	r.mincRows += int64(mst.Rows)
	m0 = mallocs()
	sp = r.begin("lsq.Estimate", root)
	lLoss := s.lsqEst.Estimate(obs)
	r.end(sp)
	r.lsqMallocs += int64(mallocs() - m0)
	s.lsqOut = append(s.lsqOut[:0], lLoss...)
	r.lsqCalls++
	r.lsqRows += int64(s.lsqEst.LastStats().Rows)

	// The facade's harvest: sorted Dophy estimates, truth statistics and
	// the baselines scored against ground truth.
	o.est = o.est[:0]
	for i, e := range rep.Est {
		if math.IsNaN(e.Loss) {
			continue
		}
		l := rep.Table.Link(topo.LinkIdx(i))
		o.est = append(o.est, linkEst{from: int(l.From), to: int(l.To), loss: e.Loss, stdErr: e.StdErr, samples: e.Samples})
	}
	o.deliveryRatio = truth.DeliveryRatio()
	o.bytesPerPacket = rep.Overhead.BitsPerPacket() / 8
	o.decodeErrors = rep.DecodeErrors
	o.dophyMAE = math.NaN() // scored by the untraced pass only
	o.baselines = true
	minAttempts := s.sc.MinTruthAttempts
	o.mincMAE = experiment.Score(&experiment.SchemeEpoch{Table: s.lt, Loss: s.mincOut}, truth, minAttempts).MAE
	o.lsqMAE = experiment.Score(&experiment.SchemeEpoch{Table: s.lt, Loss: s.lsqOut}, truth, minAttempts).MAE
	r.end(root)
	res.EpochNs = append(res.EpochNs, r.spans[root].Dur)

	r.events += int64(s.eng.Processed() - events0)
	r.retryDrops = s.router.drops
	r.beacons += s.proto.BeaconsSent - s.lastBeacons
	s.lastBeacons = s.proto.BeaconsSent
	r.addEpoch(truth, rep.Overhead.AnnotationBits, rep.Overhead.Hops, rep.Overhead.Packets,
		rep.DecodeErrors, s.nw.QueueDrops-s.lastQD)
	s.lastQD = s.nw.QueueDrops
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// tracedFacadePass runs one traced pass of a facade workload on the
// rebuilt stack of deployment i.
func tracedFacadePass(w *workload, seed uint64, i int) (*passResult, error) {
	r := newTraceRec(w.epochs, false)
	res := &passResult{Network: i}
	runtime.GC()
	t0 := nanos()
	s, err := buildStack(w.facadeOptions(seed, i))
	r.constructNs = nanos() - t0
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.SetupS = []float64{secs(r.constructNs)}
	runtime.GC()
	d := newDigest()
	var o epochOut
	loop := markLoop()
	for e := 0; e < w.epochs; e++ {
		m0 := mallocs()
		s.runEpoch(r, res, &o)
		res.Mallocs += mallocs() - m0
		res.record(&o, d)
	}
	r.endLoop(loop)
	res.Digest = d.hex()
	r.finish(res)
	return res, nil
}

// traceRec holds one traced pass's spans and per-layer counters.
type traceRec struct {
	sharded bool
	spans   []span
	trace   int

	epochs                                      int
	constructNs                                 int64
	events, pending                             int64
	parentCalls, resultCalls                    int64
	retryDrops                                  int64
	dataAttempts, beacons, parentChanges        int64
	delivered, dropped, queueDrops              int64
	annotBits, dophyHops, dophyPkts, decodeErrs int64
	dirtyLinks, tableLinks                      int64
	mincCalls, mincIters, mincRows, mincMallocs int64
	lsqCalls, lsqRows, lsqMallocs               int64
	windows, exchanged, cutLinks                int64
	gcCycles, gcPauseNs, cpuNs, wallNs          int64
}

func newTraceRec(epochs int, sharded bool) *traceRec {
	return &traceRec{sharded: sharded, spans: make([]span, 0, epochs*24)}
}

// begin opens a span; a root (parent -1) starts a new trace.
func (r *traceRec) begin(name string, parent int) int {
	if parent < 0 {
		r.trace++
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Trace: r.trace, ID: id, Parent: parent, Name: name})
	r.spans[id].Start = nanos()
	return id
}

func (r *traceRec) end(id int) {
	sp := &r.spans[id]
	sp.End = nanos()
	sp.Dur = sp.End - sp.Start
}

// fold records a's calls as an aggregate span under parent, resets a and
// returns the call count.
func (r *traceRec) fold(parent int, name string, a *callAgg) int64 {
	r.spans = append(r.spans, span{Trace: r.trace, ID: len(r.spans), Parent: parent, Name: name,
		Agg: true, Count: a.calls, Dur: a.ns})
	n := a.calls
	*a = callAgg{}
	return n
}

// addEpoch folds one epoch's ground truth and Dophy overhead into the
// counters. Both engines expose these.
func (r *traceRec) addEpoch(truth *trace.Epoch, annotBits, hops, pkts, decodeErrs, queueDrops int64) {
	r.epochs++
	for _, c := range truth.Counts {
		r.dataAttempts += c.DataAttempts
	}
	r.parentChanges += truth.ParentChanges
	r.delivered += truth.Delivered
	r.dropped += truth.Dropped
	r.dirtyLinks += int64(truth.DirtyCount())
	r.tableLinks = int64(len(truth.Counts))
	r.annotBits += annotBits
	r.dophyHops += hops
	r.dophyPkts += pkts
	r.decodeErrs += decodeErrs
	r.queueDrops += queueDrops
}

// shardedEpoch runs one traced epoch of the sharded session.
func (r *traceRec) shardedEpoch(s *experiment.ShardedSession, res *passResult) *experiment.EpochOutcome {
	events0, st0, beacons0 := s.Events(), s.Stats(), s.BeaconsSent()
	root := r.begin("epoch", -1)
	sp := r.begin("sim.Run", root)
	eo := s.RunEpoch()
	r.end(sp)
	r.end(root)
	res.EpochNs = append(res.EpochNs, r.spans[root].Dur)
	st := s.Stats()
	r.events += int64(s.Events() - events0)
	r.windows += int64(st.Windows - st0.Windows)
	r.exchanged += int64(st.Exchanged - st0.Exchanged)
	r.beacons += s.BeaconsSent() - beacons0
	se := eo.Schemes[experiment.SchemeDophy]
	r.addEpoch(eo.Truth, se.AnnotationBits, se.Hops, se.Packets, se.DecodeErrors, eo.QueueDrops)
	return eo
}

// loopMark is a reading of the runtime and process counters at the start
// of an epoch loop.
type loopMark struct {
	numGC         uint32
	pauseNs       uint64
	cpuNs, wallNs int64
}

func markLoop() loopMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return loopMark{numGC: ms.NumGC, pauseNs: ms.PauseTotalNs, cpuNs: cpuNanos(), wallNs: nanos()}
}

// cpuNanos is the process's user plus system CPU time.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func (r *traceRec) endLoop(start loopMark) {
	end := markLoop()
	r.gcCycles += int64(end.numGC - start.numGC)
	r.gcPauseNs += int64(end.pauseNs - start.pauseNs)
	r.cpuNs += end.cpuNs - start.cpuNs
	r.wallNs += end.wallNs - start.wallNs
}

// spanGroups maps span names to the per-layer time metrics they feed.
// Each span belongs to the first group whose prefix it matches. all marks
// the groups every workload's traced pass observes.
var spanGroups = []struct {
	metric, prefix string
	all            bool
}{
	{"sim.self", "sim.Run", true},
	{"radio.prr_data", "radio.PRR.data", false},
	{"radio.prr_beacon", "radio.PRR.beacon", false},
	{"routing.parent", "routing.Parent", false},
	{"routing.data_result", "routing.OnDataResult", false},
	{"core.on_journey", "core.OnJourney", false},
	{"core.end_epoch", "core.EndEpoch", false},
	{"pathrecord.on_journey", "pathrecord.OnJourney", false},
	{"pathrecord.end_epoch", "pathrecord.EndEpoch", false},
	{"epochobs.on_journey", "epochobs.OnJourney", false},
	{"epochobs.end_epoch", "epochobs.EndEpoch", false},
	{"trace.cut", "trace.Cut", false},
	{"minc.estimate", "minc.Estimate", false},
	{"lsq.estimate", "lsq.Estimate", false},
	{"bench.unattributed", "epoch", true},
}

func spanGroup(name string) int {
	for i, g := range spanGroups {
		if strings.HasPrefix(name, g.prefix) {
			return i
		}
	}
	return -1
}

// finish computes the pass's per-layer metrics from its spans and
// counters, and checks that every epoch's layer self times sum to the
// epoch's duration.
func (r *traceRec) finish(res *passResult) {
	self := selfTimes(r.spans)
	// perEpoch[g][t-1] is group g's self time in epoch t.
	perEpoch := make([][]int64, len(spanGroups))
	for g := range perEpoch {
		perEpoch[g] = make([]int64, r.trace)
	}
	sums := make([]int64, r.trace)
	roots := make([]int64, r.trace)
	for i, sp := range r.spans {
		g := spanGroup(sp.Name)
		if g < 0 {
			res.Problems = append(res.Problems, fmt.Sprintf("span %q belongs to no layer", sp.Name))
			continue
		}
		perEpoch[g][sp.Trace-1] += self[i]
		sums[sp.Trace-1] += self[i]
		if sp.Parent < 0 {
			roots[sp.Trace-1] = sp.Dur
		}
	}
	var epochNs int64
	for t := range sums {
		epochNs += roots[t]
		if sums[t] != roots[t] {
			res.Problems = append(res.Problems, fmt.Sprintf("epoch %d: layer self times sum to %d ns, epoch took %d ns", t+1, sums[t], roots[t]))
		}
	}
	res.Spans = r.spans
	res.Layers = r.metrics(perEpoch, epochNs)
}

// metricValue is one reported number. NA marks a metric of a layer the
// workload does not run or does not expose; it reads 0. Detail marks a
// number printed for people but not part of the machine-readable result.
type metricValue struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	NA     bool    `json:"na,omitempty"`
	Detail bool    `json:"detail,omitempty"`
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// metrics lists the per-layer metrics, sorted by name. Each span group
// gives a busy time as a share of traced epoch time, so a layer a workload
// never calls reads 0 as a fraction, not as a constant time, and its
// per-epoch median in seconds, printed as detail unless every workload
// observes the group.
func (r *traceRec) metrics(perEpoch [][]int64, epochNs int64) []metricValue {
	var out []metricValue
	add := func(name, unit string, v float64, na bool) {
		out = append(out, metricValue{Name: name, Unit: unit, Value: v, NA: na})
	}
	facadeOnly, shardedOnly := r.sharded, !r.sharded
	var simSelf int64
	for g, sg := range spanGroups {
		var total int64
		xs := make([]float64, len(perEpoch[g]))
		for i, x := range perEpoch[g] {
			total += x
			xs[i] = secs(x)
		}
		if sg.metric == "sim.self" {
			simSelf = total
		}
		na := r.sharded && !sg.all
		add(sg.metric+"_share", "ratio", ratio(total, epochNs), na)
		out = append(out, metricValue{Name: sg.metric + "_s", Unit: "s", Value: median(xs), NA: na, Detail: !sg.all})
	}
	per := func(x int64) float64 { return ratio(x, int64(r.epochs)) }
	add("sim.events_per_epoch", "count", per(r.events), false)
	add("sim.events_per_self_s", "1/s", 1e9*ratio(r.events, simSelf), false)
	add("sim.pending_at_cut", "count", per(r.pending), facadeOnly)
	add("radio.prr_data_calls", "count", per(r.aggCalls("radio.PRR.data")), facadeOnly)
	add("radio.prr_beacon_calls", "count", per(r.aggCalls("radio.PRR.beacon")), facadeOnly)
	add("mac.attempts_per_epoch", "count", per(r.dataAttempts), false)
	add("mac.attempts_per_hop", "count", ratio(r.dataAttempts, r.resultCalls), facadeOnly)
	add("mac.retry_drop_ratio", "ratio", ratio(r.retryDrops, r.resultCalls), facadeOnly)
	add("routing.beacons_per_epoch", "count", per(r.beacons), false)
	add("routing.parent_changes_per_epoch", "count", per(r.parentChanges), false)
	add("routing.parent_calls", "count", per(r.parentCalls), facadeOnly)
	add("routing.data_result_calls", "count", per(r.resultCalls), facadeOnly)
	add("collect.journeys_per_epoch", "count", per(r.delivered+r.dropped), false)
	add("collect.hops_per_journey", "count", ratio(r.dophyHops, r.dophyPkts), false)
	add("collect.delivered_ratio", "ratio", ratio(r.delivered, r.delivered+r.dropped), false)
	add("collect.queue_drops_per_epoch", "count", per(r.queueDrops), false)
	add("core.bits_per_hop", "bit", ratio(r.annotBits, r.dophyHops), false)
	add("core.decode_errors", "count", float64(r.decodeErrs), false)
	add("trace.dirty_link_ratio", "ratio", ratio(r.dirtyLinks, r.tableLinks*int64(r.epochs)), false)
	add("minc.iters", "count", ratio(r.mincIters, r.mincCalls), facadeOnly)
	add("minc.rows", "count", ratio(r.mincRows, r.mincCalls), facadeOnly)
	add("minc.allocs_per_call", "count", ratio(r.mincMallocs, r.mincCalls), facadeOnly)
	add("lsq.rows", "count", ratio(r.lsqRows, r.lsqCalls), facadeOnly)
	add("lsq.allocs_per_call", "count", ratio(r.lsqMallocs, r.lsqCalls), facadeOnly)
	add("shard.windows_per_epoch", "count", per(r.windows), shardedOnly)
	add("shard.events_per_window", "count", ratio(r.events, r.windows), shardedOnly)
	add("shard.exchanged_per_window", "count", ratio(r.exchanged, r.windows), shardedOnly)
	add("shard.cut_link_ratio", "ratio", ratio(r.cutLinks, r.tableLinks), shardedOnly)
	add("shard.cpu_util", "ratio", ratio(r.cpuNs, r.wallNs), false)
	add("experiment.construct_s", "s", secs(r.constructNs), false)
	add("runtime.gc_cycles_per_epoch", "count", per(r.gcCycles), false)
	add("runtime.gc_pause_s_per_epoch", "s", secs(r.gcPauseNs)/float64(max(r.epochs, 1)), false)
	add("bench.tracing_overhead_ratio", "ratio", 0, false) // set by the parent
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// aggCalls sums the calls of the aggregate spans with a name prefix.
func (r *traceRec) aggCalls(prefix string) int64 {
	var n int64
	for _, sp := range r.spans {
		if sp.Agg && strings.HasPrefix(sp.Name, prefix) {
			n += sp.Count
		}
	}
	return n
}
