// Package experiment is the evaluation harness: it assembles complete
// simulated deployments from declarative scenarios, runs all tomography
// schemes against the same packet realisations, scores them against ground
// truth, and regenerates every table and figure in DESIGN.md's experiment
// index. cmd/dophy-bench and the repository's bench_test.go are thin
// wrappers over this package.
package experiment

import (
	"fmt"
	"math"

	"dophy/internal/collect"
	"dophy/internal/core"
	"dophy/internal/mac"
	"dophy/internal/radio"
	"dophy/internal/rng"
	"dophy/internal/routing"
	"dophy/internal/sim"
	"dophy/internal/topo"
	"dophy/internal/trace"
)

// TopoKind selects a topology generator.
type TopoKind int

const (
	TopoGrid TopoKind = iota
	TopoUniform
	TopoCorridor
	TopoChain
)

// TopoSpec declares a topology.
type TopoSpec struct {
	Kind    TopoKind
	Side    int     // grid: side length
	N       int     // uniform/corridor/chain: node count
	Spacing float64 // grid/chain spacing
	Jitter  float64 // grid placement jitter
	Width   float64 // uniform/corridor field dimensions
	Height  float64
	Range   float64 // communication range
}

// Build instantiates the topology.
func (ts TopoSpec) Build(r *rng.Source) *topo.Topology {
	switch ts.Kind {
	case TopoGrid:
		return topo.Grid(ts.Side, ts.Spacing, ts.Jitter, ts.Range, r)
	case TopoUniform:
		return topo.Uniform(ts.N, ts.Width, ts.Height, ts.Range, r)
	case TopoCorridor:
		return topo.Corridor(ts.N, ts.Width, ts.Height, ts.Range, r)
	case TopoChain:
		return topo.Chain(ts.N, ts.Spacing, ts.Range)
	}
	panic(fmt.Sprintf("experiment: unknown topology kind %d", ts.Kind))
}

// GridSpec is the standard dense testbed layout used across experiments.
func GridSpec(side int) TopoSpec {
	return TopoSpec{Kind: TopoGrid, Side: side, Spacing: 10, Jitter: 1.5, Range: 14}
}

// RadioKind selects a link-quality model.
type RadioKind int

const (
	RadioStatic RadioKind = iota
	RadioUniformLoss
	RadioRandomWalk
	RadioGilbertElliott
)

// RadioSpec declares link-quality behaviour.
type RadioSpec struct {
	Kind        RadioKind
	UniformLoss float64  // RadioUniformLoss: identical loss on all links
	WalkStep    float64  // RadioRandomWalk: logit step std
	WalkEvery   sim.Time // RadioRandomWalk: step period
	MeanGood    sim.Time // Gilbert-Elliott dwell
	MeanBad     sim.Time
	BadFactor   float64
	// FailMTBF/FailMTTR > 0 overlay node crash/recover dynamics on any
	// base kind (experiment F7).
	FailMTBF sim.Time
	FailMTTR sim.Time
}

// Build instantiates the radio model.
func (rs RadioSpec) Build(t *topo.Topology, seed uint64) radio.Model {
	bp := radio.DefaultBase()
	var m radio.Model
	switch rs.Kind {
	case RadioStatic:
		m = radio.NewStatic(t, bp, seed)
	case RadioUniformLoss:
		if rs.UniformLoss < 0 || rs.UniformLoss > 1 {
			panic(fmt.Sprintf("experiment: UniformLoss %v outside [0, 1]", rs.UniformLoss))
		}
		m = radio.NewStaticUniformLoss(t, rs.UniformLoss)
	case RadioRandomWalk:
		every := rs.WalkEvery
		if every <= 0 {
			every = 5
		}
		m = radio.NewRandomWalk(t, bp, every, rs.WalkStep, seed)
	case RadioGilbertElliott:
		m = radio.NewGilbertElliott(t, bp, rs.MeanGood, rs.MeanBad, rs.BadFactor, seed)
	default:
		panic(fmt.Sprintf("experiment: unknown radio kind %d", rs.Kind))
	}
	if rs.failures() {
		m = radio.NewNodeFailures(m, t.N(), rs.FailMTBF, rs.FailMTTR, seed^0xabcdef12345)
	}
	return m
}

// failures reports whether Build overlays node crash/recover dynamics.
func (rs RadioSpec) failures() bool { return rs.FailMTBF > 0 && rs.FailMTTR > 0 }

// Scenario declares one complete simulation setup.
type Scenario struct {
	Name     string
	Seed     uint64
	Topo     TopoSpec
	Radio    RadioSpec
	Mac      mac.Config
	Routing  routing.Config
	Collect  collect.Config
	Dophy    core.Config
	Warmup   sim.Time // routing bootstrap before data starts
	EpochLen sim.Time
	Epochs   int
	// MinTruthAttempts: links need this many ground-truth attempts in an
	// epoch to participate in accuracy scoring.
	MinTruthAttempts int64
	// Schemes selects the scheme groups the caller scores beside dophy,
	// which is always built. The zero value builds dophy alone.
	Schemes SchemeSet
}

// SchemeSet is a set of scheme groups, combined with |.
type SchemeSet uint8

const (
	// Codecs builds the in-packet encodings T1 and T11 compare with dophy:
	// dophy-noagg and the huffman, compact and raw path records.
	Codecs SchemeSet = 1 << iota
	// Baselines builds the inference baselines F2-F9 compare with dophy:
	// the epochobs collector and the MINC and LSQ estimators it feeds.
	Baselines
)

// DefaultScenario is the baseline configuration shared by experiments.
func DefaultScenario() Scenario {
	return Scenario{
		Name:             "default",
		Seed:             1,
		Topo:             GridSpec(7),
		Radio:            RadioSpec{Kind: RadioStatic},
		Mac:              mac.Config{MaxRetx: 7},
		Routing:          routing.DefaultConfig(),
		Collect:          collect.Config{GenPeriod: 5, GenJitter: 0.25, TxTime: 0.005, HopDelay: 0.01, TTL: 64},
		Dophy:            core.DefaultConfig(),
		Warmup:           80,
		EpochLen:         300,
		Epochs:           3,
		MinTruthAttempts: 20,
	}
}

// radioSeedMix separates the radio model's seed from the scenario seed the
// random streams split from.
const radioSeedMix = 0x9e3779b97f4a7c15

// Deploy derives the scenario's deployment from its seed: the topology,
// built from the first split of the root stream, the radio model, seeded
// apart from that stream, and the root stream itself, which the protocol
// stack splits its own streams from. Every run of a scenario and every tool
// that must reproduce its topology goes through Deploy.
func (sc Scenario) Deploy() (tp *topo.Topology, model radio.Model, root *rng.Source) {
	root = rng.New(sc.Seed)
	tp = sc.Topo.Build(root.Split())
	return tp, sc.Radio.Build(tp, sc.Seed^radioSeedMix), root
}

// SchemeEpoch is one scheme's normalised per-epoch output. Per-link values
// are dense vectors indexed by Table; NaN in Loss marks links the scheme did
// not estimate.
type SchemeEpoch struct {
	Name string
	// Table indexes Loss/Samples/StdErr. Nil when the scheme reported
	// nothing this epoch.
	Table *topo.LinkTable
	// Loss holds per-attempt loss per table index (NaN = not estimated).
	Loss []float64
	// Samples holds per-link observation counts (annotation schemes only).
	Samples []int64
	// StdErr holds per-link standard errors where the scheme provides them.
	StdErr []float64
	// Overhead is the in-packet schemes' cost ledger for the epoch (zero
	// for MINC and LSQ, which annotate nothing).
	core.Overhead
	DecodeErrors int64
}

// NumEstimated counts links the scheme estimated this epoch.
func (s *SchemeEpoch) NumEstimated() int {
	n := 0
	for _, v := range s.Loss {
		if !math.IsNaN(v) {
			n++
		}
	}
	return n
}

// Accuracy scores one scheme against epoch ground truth, on the links the
// scheme reported that also have ground truth (trace.Epoch.TrueLoss).
type Accuracy struct {
	MAE      float64 // mean |estimate − truth|; NaN when no link is scored
	Links    int     // links scored
	Coverage float64 // fraction of truth-active links the scheme reported
}

// Score computes Accuracy for a scheme epoch against the trace epoch. It
// is the only place an estimate is scored, and it allocates nothing.
func Score(se *SchemeEpoch, truth *trace.Epoch, minAttempts int64) Accuracy {
	var acc Accuracy
	sum := 0.0
	active := scoredLinks(se, truth, minAttempts, func(est, tru float64) {
		sum += math.Abs(est - tru)
		acc.Links++
	})
	if active > 0 {
		acc.Coverage = float64(acc.Links) / float64(active)
	}
	if acc.Links == 0 {
		acc.MAE = math.NaN()
		return acc
	}
	acc.MAE = sum / float64(acc.Links)
	return acc
}

// appendErrors appends |estimate − truth| for each link Score scores, in
// table order and unsorted.
func appendErrors(dst []float64, se *SchemeEpoch, truth *trace.Epoch, minAttempts int64) []float64 {
	scoredLinks(se, truth, minAttempts, func(est, tru float64) {
		dst = append(dst, math.Abs(est-tru))
	})
	return dst
}

// scoredLinks calls fn with the estimate and the truth of every link that
// has ground truth and an estimate, and returns how many links have ground
// truth. It walks the link table in ascending (From, To) order, so float
// sums over fn's arguments are deterministic without a sort.
func scoredLinks(se *SchemeEpoch, truth *trace.Epoch, minAttempts int64, fn func(est, tru float64)) (active int) {
	if se.Table != nil && se.Table != truth.Table {
		panic("experiment: scheme and truth index different link tables")
	}
	for i := topo.LinkIdx(0); i < truth.Table.Count(); i++ {
		tru, ok := truth.TrueLoss(i, minAttempts)
		if !ok {
			continue
		}
		active++
		if se.Table != nil && !math.IsNaN(se.Loss[i]) {
			fn(se.Loss[i], tru)
		}
	}
	return active
}

// EpochOutcome bundles everything observed in one epoch.
type EpochOutcome struct {
	Epoch int
	Truth *trace.Epoch
	// Schemes holds, by name, dophy and every scheme in the groups
	// Scenario.Schemes selects: no more, no fewer.
	Schemes map[string]*SchemeEpoch
	// QueueDrops counts congestion losses this epoch (QueueCap scenarios).
	QueueDrops int64
	// PerPacket holds one (hops, dophyBits) sample per delivered packet for
	// overhead-vs-path-length analysis (F1). It is nil unless
	// Scenario.Schemes has Codecs.
	PerPacket []PacketSample
}

// PacketSample is one delivered packet's (path length, annotation bits).
type PacketSample struct {
	Hops      int
	DophyBits int
}

// RunResult is a full scenario run.
type RunResult struct {
	Scenario Scenario
	Topology *topo.Topology
	Epochs   []*EpochOutcome
	// Events is the simulator event count for the whole run (warmup
	// included) — the denominator for events/sec throughput reporting.
	Events uint64
	// MeanPacketsPerEpoch is the mean delivered packets per epoch.
	MeanPacketsPerEpoch float64
	// MeanDeliveryRatio is the mean of the epochs' delivery ratios.
	MeanDeliveryRatio float64
	// ParentChangesPerNodePerEpoch measures routing dynamics.
	ParentChangesPerNodePerEpoch float64
	// BeaconsSent is the routing protocol's total control-plane cost.
	BeaconsSent int64
}

// Scheme names used across experiments.
const (
	SchemeDophy   = "dophy"
	SchemeDophyNA = "dophy-noagg" // ablation: aggregation disabled
	SchemeRaw     = "raw"
	SchemeCompact = "compact"
	SchemeHuffman = "huffman"
	SchemeMINC    = "minc"
	SchemeLSQ     = "lsq"
)

// scheme returns the epoch's output for a scheme the run built. harvest
// adds every built scheme to every epoch, so a missing name was not built,
// and reading it panics instead of passing for a scheme that produced
// nothing.
func (eo *EpochOutcome) scheme(name string) *SchemeEpoch {
	se, ok := eo.Schemes[name]
	if !ok {
		panic(fmt.Sprintf("experiment: scheme %q was not built: select its group in Scenario.Schemes", name))
	}
	return se
}

// MeanAccuracy averages a scheme's per-epoch accuracy across a run,
// skipping epochs where the scheme estimated nothing. It panics if the run
// did not build the scheme.
func (r *RunResult) MeanAccuracy(scheme string) Accuracy {
	var mean Accuracy
	epochs := 0
	for _, eo := range r.Epochs {
		acc := Score(eo.scheme(scheme), eo.Truth, r.Scenario.MinTruthAttempts)
		if math.IsNaN(acc.MAE) {
			continue
		}
		mean.MAE += acc.MAE
		mean.Coverage += acc.Coverage
		mean.Links += acc.Links
		epochs++
	}
	if epochs == 0 {
		return Accuracy{MAE: math.NaN()}
	}
	mean.MAE /= float64(epochs)
	mean.Coverage /= float64(epochs)
	return mean
}

// MeanBitsPerPacket averages a scheme's in-packet cost across epochs. It
// panics if the run did not build the scheme.
func (r *RunResult) MeanBitsPerPacket(scheme string) float64 {
	var totalBits, totalPkts int64
	for _, eo := range r.Epochs {
		se := eo.scheme(scheme)
		totalBits += se.AnnotationBits + se.HeaderBits
		totalPkts += se.Packets
	}
	if totalPkts == 0 {
		return 0
	}
	return float64(totalBits) / float64(totalPkts)
}

// TotalBitsPerPacket includes dissemination (DisseminationBits) amortised over
// packets — the figure optimisation 2 trades off. It panics if the run did
// not build the scheme.
func (r *RunResult) TotalBitsPerPacket(scheme string) float64 {
	var totalBits, totalPkts int64
	for _, eo := range r.Epochs {
		se := eo.scheme(scheme)
		totalBits += se.AnnotationBits + se.HeaderBits + se.DisseminationBits
		totalPkts += se.Packets
	}
	if totalPkts == 0 {
		return 0
	}
	return float64(totalBits) / float64(totalPkts)
}

// DecodeErrorTotal sums decode errors across epochs for a scheme. It
// panics if the run did not build the scheme.
func (r *RunResult) DecodeErrorTotal(scheme string) int64 {
	var n int64
	for _, eo := range r.Epochs {
		n += eo.scheme(scheme).DecodeErrors
	}
	return n
}
