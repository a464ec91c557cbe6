// Package dophy is the public API of this repository: a full reproduction
// of "Fine-Grained Loss Tomography in Dynamic Sensor Networks" (Cao, Gao,
// Dong, Bu — ICPP 2015).
//
// Dophy infers per-link, per-transmission loss ratios in wireless sensor
// networks whose routing paths change continuously. It rides on the
// retransmissions that collection protocols already perform: every hop's
// retransmission count is arithmetic-coded into the data packet for a
// fraction of a bit, and the sink runs a censored truncated-geometric
// maximum-likelihood estimator per link. Two optimisations — symbol
// aggregation and periodic probability-model updates — keep the in-packet
// overhead near the entropy of the count distribution.
//
// This package wraps the full simulation stack (discrete-event engine,
// radio models, ARQ MAC, CTP-like dynamic routing, data collection) behind
// a small surface:
//
//	sim, err := dophy.NewSimulation(dophy.Options{GridSide: 7, Seed: 1})
//	if err != nil { ... }
//	report := sim.RunEpoch()
//	for link, est := range report.Estimates {
//	    fmt.Printf("%v: loss %.3f (true %.3f)\n", link, est.Loss, report.TrueLoss[link])
//	}
//
// The internal packages contain the complete machinery; see DESIGN.md for
// the system inventory and EXPERIMENTS.md for the reproduced evaluation.
package dophy

import (
	"errors"
	"fmt"
	"math"

	"dophy/internal/experiment"
	"dophy/internal/sim"
	"dophy/internal/topo"
)

// NodeID identifies a node; the sink is node 0.
type NodeID = topo.NodeID

// Link is a directed link between adjacent nodes.
type Link = topo.Link

// Dynamics selects how link qualities evolve during a simulation.
type Dynamics int

const (
	// DynamicsStatic keeps link qualities fixed.
	DynamicsStatic Dynamics = iota
	// DynamicsDrift lets link qualities wander (random walk), driving
	// routing churn the way slowly changing environments do.
	DynamicsDrift
	// DynamicsBursty applies two-state Gilbert-Elliott loss bursts.
	DynamicsBursty
)

// Options configures a simulated deployment. The zero value is usable:
// defaults are filled in by NewSimulation.
type Options struct {
	// GridSide: nodes are placed on a GridSide x GridSide jittered grid
	// (default 7, i.e. 49 nodes). Mutually exclusive with Nodes.
	GridSide int
	// Nodes > 0 places nodes uniformly at random instead of on a grid.
	Nodes int
	// Seed makes the whole run reproducible (default 1).
	Seed uint64
	// Dynamics selects link-quality evolution (default DynamicsStatic).
	Dynamics Dynamics
	// UniformLoss > 0 forces every link to that loss ratio (handy for
	// validation); 0 uses the realistic distance+shadowing model.
	UniformLoss float64
	// MaxRetx is the MAC retransmission budget per hop (default 7).
	MaxRetx int
	// GenPeriodSeconds is the per-node data generation interval (default 5).
	GenPeriodSeconds float64
	// EpochSeconds is the estimation epoch length (default 300).
	EpochSeconds float64
	// AggThreshold is Dophy optimisation 1's aggregation threshold
	// (default 3). Like every zero field, 0 means the default.
	AggThreshold int
	// UpdateEvery is Dophy optimisation 2's model-update period in epochs
	// (default 1). Like every zero field, 0 means the default.
	UpdateEvery int
	// ParentChurn forces extra routing dynamics: probability per beacon of
	// re-picking a random admissible parent (default 0).
	ParentChurn float64
	// CompareBaselines also runs the traditional tomography baselines each
	// epoch and reports their accuracy.
	CompareBaselines bool
	// QueueCap > 0 bounds each relay's forwarding queue, modelling
	// congestion: overloaded relays drop packets (visible in DeliveryRatio
	// but never in Dophy's link estimates). 0 disables contention modelling.
	QueueCap int
	// FailureMTBF > 0 makes nodes crash (radio silent) and recover with the
	// given mean time between failures; FailureMTTR is the mean outage
	// (default 60s). The sink never fails.
	FailureMTBF float64
	FailureMTTR float64
}

// LinkEstimate is Dophy's per-link output.
type LinkEstimate struct {
	// Loss is the estimated per-transmission loss ratio in [0,1].
	Loss float64
	// StdErr is the observed-information standard error (0 if degenerate).
	StdErr float64
	// Samples is the number of retransmission-count observations.
	Samples int64
}

// Report is one epoch's results.
type Report struct {
	Epoch int
	// Estimates holds Dophy's per-link loss estimates.
	Estimates map[Link]LinkEstimate
	// TrueLoss holds the simulator's ground truth for every link that
	// carried enough data traffic to score.
	TrueLoss map[Link]float64
	// MAE is the mean absolute error of Estimates against TrueLoss over
	// the scored links (NaN when nothing could be scored).
	MAE float64
	// Coverage is the fraction of truth-active links Dophy estimated.
	Coverage float64
	// BytesPerPacket is the mean in-packet annotation+header cost.
	BytesPerPacket float64
	// DisseminationBytes is the model-update flood cost this epoch.
	DisseminationBytes float64
	// DeliveryRatio is the network's end-to-end delivery ratio: delivered
	// over Generated, and 1 when Generated is 0.
	DeliveryRatio float64
	// Generated counts the packets the network generated this epoch; 0
	// means DeliveryRatio has no packets behind it.
	Generated int64
	// ParentChangesPerNode measures routing dynamics during the epoch.
	ParentChangesPerNode float64
	// DecodeErrors counts annotation decode failures (must be 0).
	DecodeErrors int64
	// BaselineMAE holds the traditional baselines' accuracy when
	// Options.CompareBaselines was set (keys "minc" and "lsq").
	BaselineMAE map[string]float64
}

// TopologyInfo summarises the simulated deployment.
type TopologyInfo struct {
	Nodes     int
	Links     int
	AvgDegree float64
	AvgHops   float64
	MaxHops   int
}

// Simulation is a running deployment.
type Simulation struct {
	session  *experiment.Session
	scenario experiment.Scenario
	compare  bool
}

// validate rejects every non-finite float option and every negative
// numeric option, so a malformed Options is an error rather than a panic
// deep in the stack or a silent fall-back to a default.
func (opt Options) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"UniformLoss", opt.UniformLoss},
		{"GenPeriodSeconds", opt.GenPeriodSeconds},
		{"EpochSeconds", opt.EpochSeconds},
		{"ParentChurn", opt.ParentChurn},
		{"FailureMTBF", opt.FailureMTBF},
		{"FailureMTTR", opt.FailureMTTR},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("dophy: %s %v is not finite", f.name, f.v)
		}
		if f.v < 0 {
			return fmt.Errorf("dophy: %s %v is negative", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"GridSide", opt.GridSide},
		{"Nodes", opt.Nodes},
		{"MaxRetx", opt.MaxRetx},
		{"AggThreshold", opt.AggThreshold},
		{"UpdateEvery", opt.UpdateEvery},
		{"QueueCap", opt.QueueCap},
	} {
		if f.v < 0 {
			return fmt.Errorf("dophy: %s %d is negative", f.name, f.v)
		}
	}
	return nil
}

// NewSimulation validates options, builds the network and runs the routing
// warmup so the first epoch starts with an operational collection tree.
func NewSimulation(opt Options) (*Simulation, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if opt.GridSide != 0 && opt.Nodes != 0 {
		return nil, errors.New("dophy: GridSide and Nodes are mutually exclusive")
	}
	if opt.UniformLoss >= 1 {
		return nil, fmt.Errorf("dophy: UniformLoss %v outside [0,1)", opt.UniformLoss)
	}
	if opt.ParentChurn > 1 {
		return nil, fmt.Errorf("dophy: ParentChurn %v outside [0,1]", opt.ParentChurn)
	}

	sc := experiment.DefaultScenario()
	sc.Name = "api"
	if opt.Seed != 0 {
		sc.Seed = opt.Seed
	}
	switch {
	case opt.Nodes > 0:
		if opt.Nodes < 2 {
			return nil, errors.New("dophy: need at least 2 nodes")
		}
		// Field sized for ~10 expected neighbours per node, which keeps
		// random placements connected at typical seeds.
		side := math.Sqrt(float64(opt.Nodes)) * 8
		sc.Topo = experiment.TopoSpec{
			Kind: experiment.TopoUniform, N: opt.Nodes,
			Width: side, Height: side, Range: 14,
		}
	case opt.GridSide > 0:
		if opt.GridSide < 2 {
			return nil, errors.New("dophy: grid side must be >= 2")
		}
		sc.Topo = experiment.GridSpec(opt.GridSide)
	}
	switch opt.Dynamics {
	case DynamicsStatic:
		if opt.UniformLoss > 0 {
			sc.Radio = experiment.RadioSpec{Kind: experiment.RadioUniformLoss, UniformLoss: opt.UniformLoss}
		}
	case DynamicsDrift:
		sc.Radio = experiment.RadioSpec{Kind: experiment.RadioRandomWalk, WalkStep: 0.3, WalkEvery: 5}
	case DynamicsBursty:
		sc.Radio = experiment.RadioSpec{Kind: experiment.RadioGilbertElliott, MeanGood: 60, MeanBad: 20, BadFactor: 0.3}
	default:
		return nil, fmt.Errorf("dophy: unknown dynamics %d", opt.Dynamics)
	}
	if opt.Dynamics != DynamicsStatic && opt.UniformLoss > 0 {
		return nil, errors.New("dophy: UniformLoss requires DynamicsStatic")
	}
	sc.Collect.QueueCap = opt.QueueCap
	if opt.FailureMTBF > 0 {
		sc.Radio.FailMTBF = sim.Time(opt.FailureMTBF)
		mttr := opt.FailureMTTR
		if mttr == 0 {
			mttr = 60
		}
		sc.Radio.FailMTTR = sim.Time(mttr)
	}
	if opt.MaxRetx > 0 {
		sc.Mac.MaxRetx = opt.MaxRetx
	}
	if opt.GenPeriodSeconds > 0 {
		sc.Collect.GenPeriod = sim.Time(opt.GenPeriodSeconds)
	}
	if opt.EpochSeconds > 0 {
		sc.EpochLen = sim.Time(opt.EpochSeconds)
	}
	if opt.AggThreshold > 0 {
		sc.Dophy.AggThreshold = opt.AggThreshold
	}
	sc.Dophy.UpdateEvery = opt.UpdateEvery
	if opt.UpdateEvery == 0 {
		sc.Dophy.UpdateEvery = 1
	}
	sc.Routing.RandomizeParentProb = opt.ParentChurn
	if opt.CompareBaselines {
		sc.Schemes = experiment.Baselines
	}

	s := &Simulation{scenario: sc, compare: opt.CompareBaselines}
	// Random placements occasionally come out partitioned; deterministically
	// probe a few derived seeds so every (Options, Seed) pair still maps to
	// exactly one connected deployment.
	base := sc.Seed
	for attempt := 0; attempt < 10; attempt++ {
		sc.Seed = base + uint64(attempt)*0x9e3779b97f4a7c15
		s.scenario = sc
		s.session = experiment.NewSession(sc)
		if s.session.Topology().Connected() {
			return s, nil
		}
	}
	return nil, errors.New("dophy: could not generate a connected topology; increase density")
}

// Topology describes the simulated deployment.
func (s *Simulation) Topology() TopologyInfo {
	sum := s.session.Topology().Summary()
	return TopologyInfo{
		Nodes:     sum.Nodes,
		Links:     sum.Links,
		AvgDegree: sum.AvgDegree,
		AvgHops:   sum.AvgHops,
		MaxHops:   sum.MaxHops,
	}
}

// RunEpoch advances the network one epoch and returns Dophy's estimates
// with ground truth attached.
func (s *Simulation) RunEpoch() *Report {
	eo := s.session.RunEpoch()
	se := eo.Schemes[experiment.SchemeDophy]
	rep := &Report{
		Epoch:                eo.Epoch,
		Estimates:            make(map[Link]LinkEstimate, len(se.Loss)),
		TrueLoss:             make(map[Link]float64),
		DeliveryRatio:        eo.Truth.DeliveryRatio(),
		Generated:            eo.Truth.Generated,
		DecodeErrors:         se.DecodeErrors,
		BytesPerPacket:       se.BitsPerPacket() / 8,
		DisseminationBytes:   float64(se.DisseminationBits) / 8,
		ParentChangesPerNode: float64(eo.Truth.ParentChanges) / math.Max(1, float64(s.session.Topology().N()-1)),
	}
	min := s.scenario.MinTruthAttempts
	truth := eo.Truth
	for i := topo.LinkIdx(0); i < truth.Table.Count(); i++ {
		if loss, ok := truth.TrueLoss(i, min); ok {
			rep.TrueLoss[truth.Table.Link(i)] = loss
		}
	}
	for i := topo.LinkIdx(0); i < se.Table.Count(); i++ {
		if loss := se.Loss[i]; !math.IsNaN(loss) {
			rep.Estimates[se.Table.Link(i)] = LinkEstimate{Loss: loss, StdErr: se.StdErr[i], Samples: se.Samples[i]}
		}
	}
	acc := experiment.Score(se, truth, min)
	rep.MAE, rep.Coverage = acc.MAE, acc.Coverage
	if s.compare {
		rep.BaselineMAE = map[string]float64{}
		for _, name := range []string{experiment.SchemeMINC, experiment.SchemeLSQ} {
			rep.BaselineMAE[name] = experiment.Score(eo.Schemes[name], truth, min).MAE
		}
	}
	return rep
}
