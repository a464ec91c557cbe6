package experiment

import (
	"math"

	"dophy/internal/collect"
	"dophy/internal/mac"
	"dophy/internal/routing"
	"dophy/internal/sim"
	"dophy/internal/topo"
	"dophy/internal/trace"
)

// engine is what a deployment needs of its simulator once it is built:
// *sim.Engine on the plain engine, *shard.Engine[delivery] on the sharded
// one.
type engine interface {
	Run(until sim.Time) sim.Time
	Processed() uint64
}

// deployment is one assembled deployment with the scenario's schemes
// attached, on either engine. Session and ShardedSession embed it: their
// constructors build what differs (the engine, the per-node streams and
// ownership, where completed journeys go), and everything after
// construction is written once here.
type deployment struct {
	sc  Scenario
	tp  *topo.Topology
	eng engine
	// Per-shard stacks, one entry each on the plain engine. Code running
	// inside a sharded window reaches them only through its own shard's
	// index; everything else reads them with the workers parked.
	recs   []*trace.Recorder
	protos []*routing.Protocol
	nws    []*collect.Network
	// owner maps each node to the index of its stack above: topo.Partition's
	// node->shard map, all zero on the plain engine.
	owner []topo.ShardID
	bank  *schemeBank

	epoch          int
	lastQueueDrops int64
}

// newDeployment builds the per-shard stack slices over shards shards; the
// constructor fills them and builds the bank once the stacks exist.
func newDeployment(sc Scenario, tp *topo.Topology, eng engine, owner []topo.ShardID, shards int) deployment {
	return deployment{
		sc: sc, tp: tp, eng: eng, owner: owner,
		recs:   make([]*trace.Recorder, shards),
		protos: make([]*routing.Protocol, shards),
		nws:    make([]*collect.Network, shards),
	}
}

// start runs the routing warmup, discards its ground truth and starts data
// generation. The warmup produces no journeys, so the sink stage has
// nothing to feed before the first epoch.
func (d *deployment) start() {
	for _, p := range d.protos {
		p.Start()
	}
	d.eng.Run(d.sc.Warmup)
	trace.CutMerged(d.recs)
	for _, nw := range d.nws {
		nw.Start()
	}
}

// Topology exposes the built topology.
func (d *deployment) Topology() *topo.Topology { return d.tp }

// BeaconsSent sums the routing protocol's control-plane transmissions over
// all shards.
func (d *deployment) BeaconsSent() int64 {
	var total int64
	for _, p := range d.protos {
		total += p.BeaconsSent
	}
	return total
}

// Events exposes the simulator's processed-event count so far.
func (d *deployment) Events() uint64 { return d.eng.Processed() }

// Routed counts nodes (excluding the sink) that currently have a parent.
func (d *deployment) Routed() int {
	n := 0
	for _, p := range d.protos {
		n += p.Routed()
	}
	return n
}

// recycle hands a journey the sink stage is done with back to the collect
// network of the shard that generated it, so every pool keeps the records
// its own nodes' packets ride. The sink stage calls it on the simulation
// side, with any shard workers parked.
func (d *deployment) recycle(j *collect.PacketJourney) {
	d.nws[d.owner[j.Origin]].Recycle(j)
}

// RunEpoch advances the simulation one epoch, with the sink stage feeding
// the scheme bank alongside, and harvests every built scheme.
func (d *deployment) RunEpoch() *EpochOutcome {
	d.epoch++
	d.bank.sink.start()
	d.eng.Run(d.sc.Warmup + sim.Time(d.epoch)*d.sc.EpochLen)
	d.bank.sink.join()
	truth := trace.CutMerged(d.recs)
	var drops int64
	for _, nw := range d.nws {
		drops += nw.QueueDrops
	}
	drops, d.lastQueueDrops = drops-d.lastQueueDrops, drops
	return d.bank.harvest(d.epoch, truth, drops)
}

// runEpochs steps d through its scenario's epochs and folds the run totals
// from each outcome's ground truth.
func runEpochs(d *deployment) *RunResult {
	sc := d.sc
	res := &RunResult{Scenario: sc, Topology: d.tp}
	var totalPackets, totalChanges int64
	for ep := 0; ep < sc.Epochs; ep++ {
		eo := d.RunEpoch()
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
	res.BeaconsSent = d.BeaconsSent()
	res.Events = d.Events()
	return res
}

// Session is the deployment on the plain engine: one mac/routing/collect
// stack on one sim.Engine, with beacons and hand-offs applied synchronously.
// experiment.Run and the public dophy facade share it.
//
// Consumers and annotators attach only before the first epoch runs — an
// epoch they missed can never be replayed.
type Session struct {
	deployment
}

// NewSession builds the network, attaches dophy and the scheme groups
// sc.Schemes selects, runs the routing warmup and starts data generation.
// The stack splits its streams from the root in the order mac, routing,
// collect.
func NewSession(sc Scenario) *Session {
	tp, model, root := sc.Deploy()
	eng := sim.New()
	s := &Session{newDeployment(sc, tp, eng, make([]topo.ShardID, tp.N()), 1)}
	rec := trace.NewRecorder(tp.LinkTable())
	arq := mac.New(sc.Mac, model, root.Split(), rec)
	proto := routing.New(sc.Routing, eng, tp, model, root.Split(), rec)
	nw := collect.New(sc.Collect, eng, tp, arq, proto, root.Split(), rec)
	s.recs[0], s.protos[0], s.nws[0] = rec, proto, nw
	s.bank = newSchemeBank(sc, tp, &s.deployment)
	// Journeys go straight to the sink stage as collect completes them.
	nw.Subscribe(s.bank.sink.add)
	s.start()
	return s
}

// SubscribeJourneys registers an extra consumer of every completed journey
// (e.g. the trace exporter). Call before the first RunEpoch. fn runs on the
// simulation goroutine while the sink stage may be reading the same journey
// concurrently, and the journey is recycled for a later packet once the
// sink is done with it: fn must not write j or retain it after returning.
func (s *Session) SubscribeJourneys(fn collect.JourneyFunc) { s.nws[0].Subscribe(fn) }

// AttachAnnotator registers a hop-by-hop annotator (the distributed
// encoding path). Call before the first RunEpoch.
func (s *Session) AttachAnnotator(a collect.Annotator) { s.nws[0].AttachAnnotator(a) }

// Run executes the scenario with the schemes it selects: a NewSession
// stepped through RunEpoch sc.Epochs times.
func Run(sc Scenario) *RunResult {
	return runEpochs(&NewSession(sc).deployment)
}
