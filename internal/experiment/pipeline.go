// This file holds the sink stage, the package's one simulation-side
// concurrency stage.
//
// The sink stage overlaps the scheme bank's per-journey work with the
// simulation. During an epoch the simulation side appends each completed
// journey to a fixed-size batch; full batches go over one channel to a
// single sink goroutine, which feeds them to the bank in arrival order and
// hands each fed batch back over a second channel, still holding its
// journeys. The simulation side recycles those journeys into collect when it
// next needs a batch, and waits when none is free, so a fixed set of batches
// bounds both memory and how far the simulation runs ahead of the sink.
// RunEpoch hands off the partial batch and joins the goroutine before it
// harvests, so no sink goroutine outlives an epoch. One consumer, FIFO
// channels: the bank sees every journey in completion order, as if fed
// inline.
package experiment

import "dophy/internal/collect"

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
	// the feeder and both channel ends belong to the sink goroutine until done closes
	go sinkLoop(st.to, st.full, st.done)
}

// add queues one completed journey for the sink; it is collect's journey
// subscriber (Session) or the barrier flush's consumer (ShardedSession) and
// must run between start and join. A full batch goes to the sink at once.
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
