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
	if rs.FailMTBF > 0 && rs.FailMTTR > 0 {
		m = radio.NewNodeFailures(m, t.N(), rs.FailMTBF, rs.FailMTTR, seed^0xabcdef12345)
	}
	return m
}

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
	// AnnotationBits / HeaderBits / ExtraBits decompose the epoch overhead
	// (ExtraBits covers model dissemination).
	AnnotationBits int64
	HeaderBits     int64
	ExtraBits      int64
	// TransmittedBits is the radiated annotation volume (prefix bits times
	// per-hop transmissions, plus headers).
	TransmittedBits int64
	Packets         int64
	Hops            int64
	DecodeErrors    int64
}

// LossAt returns the scheme's estimate for one link.
func (s *SchemeEpoch) LossAt(l topo.Link) (float64, bool) {
	if s.Table == nil {
		return 0, false
	}
	i := s.Table.Index(l)
	if i < 0 || math.IsNaN(s.Loss[i]) {
		return 0, false
	}
	return s.Loss[i], true
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

// BitsPerPacket is the mean in-packet cost.
func (s *SchemeEpoch) BitsPerPacket() float64 {
	if s.Packets == 0 {
		return 0
	}
	return float64(s.AnnotationBits+s.HeaderBits) / float64(s.Packets)
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

// Session is an assembled deployment with the scenario's schemes attached;
// epochs are stepped on demand. experiment.Run and the public dophy facade
// share it.
//
// Consumers and annotators attach only before the first epoch runs — an
// epoch they missed can never be replayed.
type Session struct {
	sc    Scenario
	tp    *topo.Topology
	eng   *sim.Engine
	rec   *trace.Recorder
	nw    *collect.Network
	proto *routing.Protocol
	bank  *schemeBank

	epoch          int
	lastQueueDrops int64
}

// NewSession builds the network, attaches dophy and the scheme groups
// sc.Schemes selects, runs the routing warmup and starts data generation.
func NewSession(sc Scenario) *Session {
	tp, model, root := sc.Deploy()
	eng := sim.New()
	lt := tp.LinkTable()
	rec := trace.NewRecorder(lt)
	arq := mac.New(sc.Mac, model, root.Split(), rec)
	proto := routing.New(sc.Routing, eng, tp, model, root.Split(), rec)
	nw := collect.New(sc.Collect, eng, tp, arq, proto, root.Split(), rec)
	s := &Session{sc: sc, tp: tp, eng: eng, rec: rec, nw: nw, proto: proto}
	s.bank = newSchemeBank(sc, tp, lt, s)
	nw.Subscribe(s.bank.sink.add)

	proto.Start()
	eng.Run(sc.Warmup)
	rec.Cut() // discard warmup ground truth
	nw.Start()
	return s
}

// Topology exposes the built topology.
func (s *Session) Topology() *topo.Topology { return s.tp }

// recycle hands a journey the sink stage is done with back to collect.
func (s *Session) recycle(j *collect.PacketJourney) { s.nw.Recycle(j) }

// SubscribeJourneys registers an extra consumer of every completed journey
// (e.g. the trace exporter). Call before the first RunEpoch. fn runs on the
// simulation goroutine while the sink stage may be reading the same journey
// concurrently, and the journey is recycled for a later packet once the
// sink is done with it: fn must not write j or retain it after returning.
func (s *Session) SubscribeJourneys(fn collect.JourneyFunc) { s.nw.Subscribe(fn) }

// AttachAnnotator registers a hop-by-hop annotator (the distributed
// encoding path). Call before the first RunEpoch.
func (s *Session) AttachAnnotator(a collect.Annotator) { s.nw.AttachAnnotator(a) }

// BeaconsSent exposes the routing protocol's control-plane transmissions.
func (s *Session) BeaconsSent() int64 { return s.proto.BeaconsSent }

// Events exposes the simulator's processed-event count so far.
func (s *Session) Events() uint64 { return s.eng.Processed() }

// RunEpoch advances the simulation one epoch, with the sink stage feeding
// the scheme bank alongside, and harvests every built scheme.
func (s *Session) RunEpoch() *EpochOutcome {
	s.epoch++
	s.bank.sink.start()
	s.eng.Run(s.sc.Warmup + sim.Time(s.epoch)*s.sc.EpochLen)
	s.bank.sink.join()
	truth := s.rec.Cut()
	drops := s.nw.QueueDrops - s.lastQueueDrops
	s.lastQueueDrops += drops
	return s.bank.harvest(s.epoch, truth, drops)
}

// Run executes the scenario with the schemes it selects: a NewSession
// stepped through RunEpoch sc.Epochs times.
func Run(sc Scenario) *RunResult {
	return runEpochs(sc, NewSession(sc))
}

// epochEngine is a deployment runEpochs can step: Session or ShardedSession.
type epochEngine interface {
	RunEpoch() *EpochOutcome
	Topology() *topo.Topology
	BeaconsSent() int64
	Events() uint64
}

// runEpochs steps e through sc.Epochs epochs and folds the run totals from
// each outcome's ground truth.
func runEpochs(sc Scenario, e epochEngine) *RunResult {
	res := &RunResult{Scenario: sc, Topology: e.Topology()}
	var totalPackets, totalChanges int64
	for ep := 0; ep < sc.Epochs; ep++ {
		eo := e.RunEpoch()
		res.Epochs = append(res.Epochs, eo)
		totalPackets += eo.Truth.Delivered
		totalChanges += eo.Truth.ParentChanges
		res.MeanDeliveryRatio += eo.Truth.DeliveryRatio() / float64(sc.Epochs)
	}
	if sc.Epochs > 0 {
		res.MeanPacketsPerEpoch = float64(totalPackets) / float64(sc.Epochs)
		res.ParentChangesPerNodePerEpoch =
			float64(totalChanges) / float64(sc.Epochs) / math.Max(1, float64(res.Topology.N()-1))
	}
	res.BeaconsSent = e.BeaconsSent()
	res.Events = e.Events()
	return res
}

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

// TotalBitsPerPacket includes dissemination (ExtraBits) amortised over
// packets — the figure optimisation 2 trades off. It panics if the run did
// not build the scheme.
func (r *RunResult) TotalBitsPerPacket(scheme string) float64 {
	var totalBits, totalPkts int64
	for _, eo := range r.Epochs {
		se := eo.scheme(scheme)
		totalBits += se.AnnotationBits + se.HeaderBits + se.ExtraBits
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
