package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"dophy"
	"dophy/internal/experiment"
	"dophy/internal/topo"
)

// clockBase anchors nanos. Only benchmark code reads it.
var clockBase = time.Now()

// nanos reads the monotonic host clock, in nanoseconds since clockBase.
// Layer wrappers call it from inside the simulation's hot paths; the
// reading is reported, never fed back into simulated state.
func nanos() int64 {
	//dophy:allow determflow -- the benchmark's clock: host time is what it measures and never reaches simulated state
	return int64(time.Since(clockBase))
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }

// passResult is what one child process reports to the parent: one pass of
// a workload's epoch plan.
type passResult struct {
	// Network is the deployment index within the run.
	Network int `json:"network"`
	// SetupS holds the construction times (s) of the simulation.
	SetupS []float64 `json:"setup_s"`
	// EpochNs holds the host time of each epoch: one RunEpoch call, or one
	// traced epoch's root span.
	EpochNs []int64 `json:"epoch_ns"`
	// Mallocs counts heap allocations inside the epoch calls.
	Mallocs uint64 `json:"mallocs"`
	// Failed counts epochs with decode errors.
	Failed  int     `json:"failed"`
	Digest  string  `json:"digest"`
	Quality quality `json:"quality"`
	// Problems lists failed output checks; a correct pass has none.
	Problems []string `json:"problems,omitempty"`
	// Layers and Spans are set by traced passes only.
	Layers []metricValue `json:"layers,omitempty"`
	Spans  []span        `json:"spans,omitempty"`
	// MaxRSSKB is the child's peak resident set, read by the parent from
	// the child's rusage.
	MaxRSSKB int64 `json:"-"`
}

// record checks one epoch's outputs and folds them into the pass.
func (r *passResult) record(o *epochOut, d *digest) {
	if o.decodeErrors > 0 {
		r.Failed++
	}
	if p := o.check(); p != "" {
		r.Problems = append(r.Problems, fmt.Sprintf("epoch %d: %s", r.Quality.Epochs+1, p))
	}
	d.add(o)
	r.Quality.add(o)
}

// check returns a description of the first out-of-range output, or "".
func (o *epochOut) check() string {
	unit := func(x float64) bool { return x >= 0 && x <= 1 }
	for _, e := range o.est {
		if !unit(e.loss) || !(e.stdErr >= 0) || math.IsInf(e.stdErr, 0) || e.samples <= 0 {
			return fmt.Sprintf("estimate %d->%d out of range: %+v", e.from, e.to, e)
		}
	}
	switch {
	// Delivered counts packets generated in earlier epochs too, so the
	// ratio may exceed 1.
	case !(o.deliveryRatio >= 0) || math.IsInf(o.deliveryRatio, 0):
		return fmt.Sprintf("delivery ratio %v", o.deliveryRatio)
	case !(o.bytesPerPacket >= 0) || math.IsInf(o.bytesPerPacket, 0):
		return fmt.Sprintf("bytes per packet %v", o.bytesPerPacket)
	case !math.IsNaN(o.dophyMAE) && !unit(o.dophyMAE):
		return fmt.Sprintf("dophy MAE %v outside [0,1]", o.dophyMAE)
	case o.baselines && !math.IsNaN(o.mincMAE) && !unit(o.mincMAE):
		return fmt.Sprintf("minc MAE %v outside [0,1]", o.mincMAE)
	case o.baselines && !math.IsNaN(o.lsqMAE) && !unit(o.lsqMAE):
		return fmt.Sprintf("lsq MAE %v outside [0,1]", o.lsqMAE)
	}
	return ""
}

// facadePass runs one untraced pass of a facade workload through the
// public API on deployment i: construction setupReps times, then the
// epochs.
func facadePass(w *workload, seed uint64, i int) (*passResult, error) {
	opt := w.facadeOptions(seed, i)
	res := &passResult{Network: i}
	var s *dophy.Simulation
	for rep := 0; rep < w.setupReps; rep++ {
		s = nil
		runtime.GC()
		t0 := nanos()
		built, err := dophy.NewSimulation(opt)
		res.SetupS = append(res.SetupS, secs(nanos()-t0))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		s = built
	}
	runtime.GC()
	d := newDigest()
	var o epochOut
	var ms runtime.MemStats
	for e := 0; e < w.epochs; e++ {
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		t0 := nanos()
		rep := s.RunEpoch()
		res.EpochNs = append(res.EpochNs, nanos()-t0)
		runtime.ReadMemStats(&ms)
		res.Mallocs += ms.Mallocs - m0
		if p := fromReport(rep, &o); p != "" {
			res.Problems = append(res.Problems, fmt.Sprintf("epoch %d: %s", e+1, p))
		}
		res.record(&o, d)
	}
	res.Digest = d.hex()
	return res, nil
}

// fromReport fills o from a facade report. It also recomputes the report's
// MAE from its own estimates and ground truth, and returns a description
// of any disagreement.
func fromReport(rep *dophy.Report, o *epochOut) string {
	links := make([]dophy.Link, 0, len(rep.Estimates))
	for l := range rep.Estimates {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].From != links[j].From {
			return links[i].From < links[j].From
		}
		return links[i].To < links[j].To
	})
	o.est = o.est[:0]
	var errSum float64
	scored := 0
	for _, l := range links {
		e := rep.Estimates[l]
		o.est = append(o.est, linkEst{from: int(l.From), to: int(l.To), loss: e.Loss, stdErr: e.StdErr, samples: e.Samples})
		if t, ok := rep.TrueLoss[l]; ok {
			errSum += math.Abs(e.Loss - t)
			scored++
		}
	}
	o.deliveryRatio = rep.DeliveryRatio
	o.bytesPerPacket = rep.BytesPerPacket
	o.decodeErrors = rep.DecodeErrors
	o.dophyMAE = rep.MAE
	o.mincMAE, o.baselines = rep.BaselineMAE[experiment.SchemeMINC]
	o.lsqMAE = rep.BaselineMAE[experiment.SchemeLSQ]
	if scored == 0 {
		if !math.IsNaN(rep.MAE) {
			return fmt.Sprintf("MAE %v with nothing scored", rep.MAE)
		}
		return ""
	}
	if got := errSum / float64(scored); math.Abs(got-rep.MAE) > 1e-12 {
		return fmt.Sprintf("reported MAE %v, recomputed %v", rep.MAE, got)
	}
	return ""
}

// fromOutcome fills o from an experiment-layer epoch outcome (the sharded
// session's), with the same fields and scoring the facade uses.
func fromOutcome(eo *experiment.EpochOutcome, minAttempts int64, o *epochOut) {
	se := eo.Schemes[experiment.SchemeDophy]
	o.est = o.est[:0]
	for i := range se.Loss {
		if math.IsNaN(se.Loss[i]) {
			continue
		}
		l := se.Table.Link(topo.LinkIdx(i))
		o.est = append(o.est, linkEst{from: int(l.From), to: int(l.To), loss: se.Loss[i], stdErr: se.StdErr[i], samples: se.Samples[i]})
	}
	o.deliveryRatio = eo.Truth.DeliveryRatio()
	o.bytesPerPacket = se.BitsPerPacket() / 8
	o.decodeErrors = se.DecodeErrors
	o.dophyMAE = experiment.Score(se, eo.Truth, minAttempts).MAE
	o.baselines = false
}

// shardedPass runs one pass of the sharded workload on deployment i. With
// r non-nil it is the traced pass: each epoch gets a root span around
// RunEpoch, and the session's exported counters (Stats, Events,
// BeaconsSent and the epoch outcome) feed r. The session exposes no finer
// layer boundaries.
func shardedPass(w *workload, seed uint64, i int, r *traceRec) (*passResult, error) {
	sc := shardedScenario(netSeed(seed, i))
	res := &passResult{Network: i}
	runtime.GC()
	t0 := nanos()
	s := experiment.NewShardedSession(sc, experiment.DefaultShardSpec(shardCount()))
	res.SetupS = []float64{secs(nanos() - t0)}
	defer s.Close()
	if r != nil {
		r.constructNs = nanos() - t0
		st := s.Stats()
		r.cutLinks = int64(st.CutLinks)
	}
	runtime.GC()
	d := newDigest()
	var o epochOut
	var ms runtime.MemStats
	var loop loopMark
	if r != nil {
		loop = markLoop()
	}
	for e := 0; e < w.epochs; e++ {
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		var eo *experiment.EpochOutcome
		if r == nil {
			t0 := nanos()
			eo = s.RunEpoch()
			res.EpochNs = append(res.EpochNs, nanos()-t0)
		} else {
			eo = r.shardedEpoch(s, res)
		}
		runtime.ReadMemStats(&ms)
		res.Mallocs += ms.Mallocs - m0
		fromOutcome(eo, sc.MinTruthAttempts, &o)
		res.record(&o, d)
	}
	res.Digest = d.hex()
	if r != nil {
		r.endLoop(loop)
		r.finish(res)
	}
	return res, nil
}
