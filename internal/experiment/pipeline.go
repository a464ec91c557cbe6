// This file holds the package's two simulation-side concurrency stages.
//
// The sink stage overlaps the scheme bank's per-journey work with the
// simulation. During an epoch the simulation side appends each completed
// journey to a fixed-size batch; full batches go over one channel to a
// single sink goroutine, which feeds them to the bank in arrival order and
// hands each fed batch back over a second channel, still holding its
// journeys. The simulation side recycles those journeys into collect when it
// next needs a batch, and waits when none is free, so a fixed set of batches
// bounds both memory and how far the simulation runs ahead of the sink.
// cutEpoch hands off the partial batch and joins the goroutine before it
// harvests, so no sink goroutine outlives an epoch. One consumer, FIFO
// channels: the bank sees every journey in completion order, as if fed
// inline.
//
// The epoch pipeline is a two-stage overlap of simulation and estimation.
// An engine's cutEpoch (Session or ShardedSession) harvests everything the
// sink observed in an epoch into an immutable epochCut; the estimation stage
// (estBank) turns a cut into the finished EpochOutcome. RunEpoch composes
// the stages on one goroutine; runEpochs, the loop behind Run and
// RunSharded, sends cuts over a channel to a single estimation goroutine so
// epoch k's (often expensive) inference runs while the simulator is already
// producing epoch k+1. There is exactly one sender and one receiver, every
// cut crosses the channel exactly once, and the estimator bank's scratch is
// touched only by the estimation goroutine, so the outcome stream is
// identical — same values, same order — to stepping RunEpoch for the same
// scenario.
//
//dophy:concurrency-boundary -- single-producer single-consumer FIFO hand-offs: journey batches to one sink goroutine per epoch, joined before harvest, and cuts to one estimation goroutine; every batch and cut crosses exactly once and nothing reaches the bank or estimators from two goroutines
package experiment

import (
	"math"

	"dophy/internal/collect"
	"dophy/internal/tomo/epochobs"
	"dophy/internal/tomo/lsq"
	"dophy/internal/tomo/minc"
	"dophy/internal/topo"
)

// Sink stage sizing, chosen by measurement (DESIGN.md "Sink stage"): three
// batches let the simulation fill one while the sink feeds another and a
// third waits, and 32 journeys amortise each channel hand-off. Together they
// bound the journeys outstanding at the sink to 96.
const (
	sinkBatches  = 3
	sinkBatchLen = 32
)

// journeyFeeder is the sink stage's consumer: the scheme bank in production.
type journeyFeeder interface {
	feed(j *collect.PacketJourney)
}

// journeyPool takes back journeys the feeder is done with: Session and
// ShardedSession hand each to the collect network that generated it.
type journeyPool interface {
	recycle(j *collect.PacketJourney)
}

// sinkBatch is a run of completed journeys in completion order, at most
// sinkBatchLen long. It belongs to the simulation side while being filled,
// to the sink goroutine from the send on full until the send on done, and
// then to the simulation side again, which recycles its journeys before
// refilling it.
type sinkBatch struct {
	//dophy:allow poolescape -- the stage is the journeys' recycler: a batch holds them only from add until reclaim hands them back to collect
	js []*collect.PacketJourney
}

// sinkStage runs a feeder on its own goroutine, one goroutine per epoch,
// over batches of completed journeys, and recycles each fed journey into
// collect. start, add and join run on the simulation side only; the sink
// goroutine sees nothing but its channel ends and the feeder. Between join
// and the next start the feeder is the caller's again (harvest reads it).
type sinkStage struct {
	to   journeyFeeder // belongs to the sink goroutine between start and join
	pool journeyPool

	cur  *sinkBatch      // the batch being filled; nil outside start..join
	idle []*sinkBatch    // every batch, between join and the next start
	full chan *sinkBatch // simulation to sink; room for every batch, so a send never blocks
	done chan *sinkBatch // sink to simulation: fed batches, still holding their journeys

	// waitNs is the simulation side's wall time blocked on the sink: waiting
	// for a free batch (back-pressure) and the join at the epoch's end.
	waitNs int64
}

func newSinkStage(to journeyFeeder, pool journeyPool) *sinkStage {
	st := &sinkStage{to: to, pool: pool}
	for i := 0; i < sinkBatches; i++ {
		st.idle = append(st.idle, &sinkBatch{js: make([]*collect.PacketJourney, 0, sinkBatchLen)})
	}
	return st
}

// start launches the epoch's sink goroutine: the first batch becomes the
// one being filled and the rest wait on done as free batches.
func (st *sinkStage) start() {
	// Both channels hold every batch, so no send ever blocks: the only
	// waits are the simulation's receives on done.
	st.full = make(chan *sinkBatch, sinkBatches)
	st.done = make(chan *sinkBatch, sinkBatches)
	st.cur = st.idle[0]
	for _, bt := range st.idle[1:] {
		st.done <- bt
	}
	st.idle = st.idle[:0]
	spawnSink(st.to, st.full, st.done)
}

// add queues one completed journey for the sink; it is collect's journey
// subscriber (Session) or the barrier flush's consumer (ShardedSession) and
// must run between start and join. A full batch goes to the sink at once.
//
//dophy:hotpath
func (st *sinkStage) add(j *collect.PacketJourney) {
	bt := st.cur
	bt.js = append(bt.js, j)
	if len(bt.js) == sinkBatchLen {
		// the batch and its journeys belong to the sink goroutine until it sends the batch back
		st.full <- bt
		st.cur = st.take()
	}
}

// take returns a free batch, waiting for the sink to hand one back if it
// has none yet, and recycles the journeys the batch still holds.
func (st *sinkStage) take() *sinkBatch {
	t0 := nowNanos()
	bt := <-st.done
	st.waitNs += nowNanos() - t0
	st.reclaim(bt)
	return bt
}

// reclaim recycles a fed batch's journeys and empties it.
func (st *sinkStage) reclaim(bt *sinkBatch) {
	for i, j := range bt.js {
		bt.js[i] = nil
		st.pool.recycle(j) // j goes back to its network's free list
	}
	bt.js = bt.js[:0]
}

// join hands the partial batch to the sink, waits for the goroutine to feed
// everything and exit, and recycles every journey it handed back. After
// join the feeder holds the whole epoch and no goroutine touches it.
func (st *sinkStage) join() {
	bt := st.cur
	st.cur = nil
	// the partial (possibly empty) batch goes to the sink like any other
	st.full <- bt
	close(st.full)
	t0 := nowNanos()
	for bt := range st.done {
		st.reclaim(bt)
		st.idle = append(st.idle, bt)
	}
	st.waitNs += nowNanos() - t0
	st.full, st.done = nil, nil
}

// spawnSink starts an epoch's sink goroutine; like spawnEst it makes the
// hand-off a single annotated statement.
func spawnSink(to journeyFeeder, full <-chan *sinkBatch, done chan<- *sinkBatch) {
	// the feeder and both channel ends belong to the sink goroutine until done closes
	go sinkLoop(to, full, done)
}

// sinkLoop feeds batches in arrival order and hands each back once fed. It
// closes done when full closes, which is join's signal that the epoch's
// sink work is complete.
func sinkLoop(to journeyFeeder, full <-chan *sinkBatch, done chan<- *sinkBatch) {
	for bt := range full {
		for _, j := range bt.js {
			to.feed(j)
		}
		// the fed batch returns to the simulation side, which recycles its journeys
		done <- bt
	}
	close(done)
}

// epochCut is one epoch's complete sink-side harvest, produced by
// schemeBank.harvest and consumed exactly once by estBank.estimate. Sending
// a cut transfers ownership: the simulation side never touches one again,
// which is what makes the estimate stage's writes to out race-free.
type epochCut struct {
	// The outcome travels with the cut: once the cut is sent, the estimation
	// stage owns it and finishes it (the one sanctioned write through a cut).
	//
	// ownership of the outcome moves with the cut to the estimation stage
	out *EpochOutcome   // built by cutEpoch; the estimation stage finishes and returns it
	obs *epochobs.Epoch // the estimators' input; nothing writes it after cutEpoch
}

// estBank is the estimation stage's state: the inference estimators whose
// scratch persists across epochs for reuse. Only the stage that owns the
// bank — the caller of RunEpoch, or the single estimation goroutine under
// runEpochs — may call estimate.
type estBank struct {
	lt      *topo.LinkTable
	mincEst *minc.Estimator // its scratch mutates only under estimate
	lsqEst  *lsq.Estimator  // its scratch mutates only under estimate
}

// newEstBank builds the MINC/LSQ estimator pair.
func newEstBank(lt *topo.LinkTable, maxAttempts int) *estBank {
	mcfg := minc.DefaultConfig()
	mcfg.MaxAttempts = maxAttempts
	lcfg := lsq.DefaultConfig()
	lcfg.MaxAttempts = maxAttempts
	return &estBank{lt: lt, mincEst: minc.NewEstimator(lt, mcfg), lsqEst: lsq.NewEstimator(lt, lcfg)}
}

// estimate runs the inference estimators over one cut and completes its
// EpochOutcome. Called once per cut, in epoch order. A nil bank (a
// Dophy-only schemeBank) has no inference stage and returns the outcome
// as harvested.
func (b *estBank) estimate(c *epochCut) *EpochOutcome {
	eo := c.out
	if b == nil {
		return eo
	}
	start := nowNanos()
	// Estimate returns borrowed estimator scratch, rewritten next epoch; the
	// SchemeEpoch outlives the epoch, so this is the one copy-out boundary.
	eo.Schemes[SchemeMINC] = &SchemeEpoch{Name: SchemeMINC, Table: b.lt, Loss: append([]float64(nil), b.mincEst.Estimate(c.obs)...)}
	eo.Schemes[SchemeLSQ] = &SchemeEpoch{Name: SchemeLSQ, Table: b.lt, Loss: append([]float64(nil), b.lsqEst.Estimate(c.obs)...)}
	eo.EstSeconds = float64(nowNanos()-start) / 1e9
	return eo
}

// spawnEst starts the estimation stage. It exists so the hand-off is a
// single annotated statement: after the go statement the caller owns
// nothing it passed — the bank and both channel ends belong to the
// estimation goroutine until outs is closed.
func spawnEst(b *estBank, cuts <-chan *epochCut, outs chan<- *EpochOutcome) {
	// the bank and channels belong to the estimation goroutine until outs closes
	go estLoop(b, cuts, outs)
}

// estLoop drains cuts in order, estimating each and forwarding the
// finished outcome. It closes outs when cuts closes, which is the
// pipeline's termination signal.
func estLoop(b *estBank, cuts <-chan *epochCut, outs chan<- *EpochOutcome) {
	for c := range cuts {
		outs <- b.estimate(c)
	}
	close(outs)
}

// epochEngine is a deployment runEpochs can step: Session or ShardedSession.
type epochEngine interface {
	cutEpoch() *epochCut
	Topology() *topo.Topology
	BeaconsSent() int64
	Events() uint64
}

// runEpochs executes sc.Epochs epochs of e with simulation and estimation
// overlapped: while the estimation goroutine fits epoch k on est, this
// goroutine simulates epoch k+1. The outcomes equal stepping e's RunEpoch —
// the bank sees the same cuts in the same order — so the overlap changes
// wall time only, saving roughly min(sim, estimation) per epoch.
func runEpochs(sc Scenario, e epochEngine, est *estBank) *RunResult {
	res := &RunResult{Scenario: sc, Topology: e.Topology()}
	// Buffer one cut so the simulator can run a full epoch ahead while the
	// previous epoch is still being estimated.
	cuts := make(chan *epochCut, 1)
	outs := make(chan *EpochOutcome, 1)
	spawnEst(est, cuts, outs)
	add := func(eo *EpochOutcome) {
		res.Epochs = append(res.Epochs, eo)
		res.EstSeconds += eo.EstSeconds
	}
	var totalPackets, totalChanges int64
	for ep := 0; ep < sc.Epochs; ep++ {
		c := e.cutEpoch()
		// Truth is complete at cut time; accumulate run totals here so the
		// receive side only collects finished outcomes.
		totalPackets += c.out.Truth.Delivered
		totalChanges += c.out.Truth.ParentChanges
		// the cut belongs to the estimation goroutine once sent
		cuts <- c
		if ep >= 1 {
			add(<-outs)
		}
	}
	close(cuts)
	for eo := range outs {
		add(eo)
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
