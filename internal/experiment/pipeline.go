// This file is the epoch pipeline: a two-stage overlap of simulation and
// estimation. An engine's cutEpoch (Session or ShardedSession) harvests
// everything the sink observed in an epoch into an immutable epochCut; the
// estimation stage (estBank) turns a cut into the finished EpochOutcome.
// RunEpoch composes the stages on one goroutine; runEpochs, the loop behind
// Run and RunSharded, sends cuts over a channel to a single estimation
// goroutine so epoch k's (often expensive) inference runs while the
// simulator is already producing epoch k+1. There is exactly one sender and
// one receiver, every cut crosses the channel exactly once, and the
// estimator bank's scratch is touched only by the estimation goroutine, so
// the outcome stream is identical — same values, same order — to stepping
// RunEpoch for the same scenario.
//
//dophy:concurrency-boundary -- single-producer single-consumer epoch hand-off; cuts are immutable after construction and the bank is owned by the estimation goroutine
package experiment

import (
	"math"

	"dophy/internal/tomo/epochobs"
	"dophy/internal/tomo/lsq"
	"dophy/internal/tomo/minc"
	"dophy/internal/topo"
)

// epochCut is one epoch's complete sink-side harvest, produced by
// schemeBank.harvest and consumed exactly once by estBank.estimate. Sending
// a cut transfers ownership: the simulation side never touches one again,
// which is what makes the estimate stage's writes to out race-free.
type epochCut struct {
	// The outcome travels with the cut: once the cut is sent, the estimation
	// stage owns it and finishes it (the one sanctioned write through a cut).
	//
	//dophy:transfers -- ownership of the outcome moves with the cut to the estimation stage
	out *EpochOutcome   //dophy:owner immutable -- built by cutEpoch; the estimation stage finishes and returns it
	obs *epochobs.Epoch //dophy:owner immutable -- the estimators' input; nothing writes it after cutEpoch
}

// estBank is the estimation stage's state: the inference estimators whose
// scratch persists across epochs for reuse. Only the stage that owns the
// bank — the caller of RunEpoch, or the single estimation goroutine under
// runEpochs — may call estimate.
type estBank struct {
	lt      *topo.LinkTable //dophy:owner immutable
	mincEst *minc.Estimator //dophy:owner immutable -- the pointer; the estimator's own scratch mutates only under estimate
	lsqEst  *lsq.Estimator  //dophy:owner immutable -- the pointer; the estimator's own scratch mutates only under estimate
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
//
//dophy:window
//dophy:readonly c -- the cut is shared with the simulation side's run totals; only the transferred outcome may be written
//dophy:effects noglobals -- estimation must not touch package state: the pipeline runs it concurrently with the simulator
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
	//dophy:transfers -- the bank and channels belong to the estimation goroutine until outs closes
	go estLoop(b, cuts, outs)
}

// estLoop drains cuts in order, estimating each and forwarding the
// finished outcome. It closes outs when cuts closes, which is the
// pipeline's termination signal.
//
//dophy:window
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
		//dophy:transfers -- the cut belongs to the estimation goroutine once sent
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
