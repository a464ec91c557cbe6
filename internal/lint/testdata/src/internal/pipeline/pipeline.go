// Package pipeline mirrors the real internal/experiment epoch pipeline: a
// single-producer single-consumer channel hand-off inside a concurrency
// boundary. The spawn helper's go statement is sanctioned by the file
// pragma; //dophy:transfers on the channel send makes any later touch of
// the sent cut a sendown violation, and the consumer may not reach the
// coordinator's engine-owned accounting.
//
//dophy:concurrency-boundary -- fixture two-stage pipeline; cuts cross the channel once and the bank belongs to the consumer goroutine
package pipeline

// cut is one epoch's harvest, immutable once constructed.
type cut struct {
	vals []float64 //dophy:owner immutable
}

// newCut is the cut's constructor: the only place vals may be written.
func newCut(v float64) *cut {
	return &cut{vals: []float64{v}}
}

// bank is the consumer stage's state: the estimator pointer never changes
// after construction (its internal scratch mutates only under consume),
// and total is the coordinator's accounting.
type bank struct {
	est   *estimator //dophy:owner immutable
	total float64    //dophy:owner engine
}

type estimator struct {
	sum float64
	out []float64
}

func (e *estimator) accumulate(vals []float64) float64 {
	for _, v := range vals {
		e.sum += v
	}
	return e.sum
}

// estimate mirrors the real estimators' borrowed-scratch contract: the
// returned slice aliases e.out and is rewritten by the next estimate.
//
//dophy:returns borrowed(recv) -- the result aliases e.out until the next estimate
//dophy:invalidates
func (e *estimator) estimate(vals []float64) []float64 {
	if len(e.out) < len(vals) {
		e.out = make([]float64, len(vals))
	}
	o := e.out[:len(vals)]
	for i, v := range vals {
		o[i] = v
	}
	return o
}

func newBank() *bank { return &bank{est: &estimator{}} }

// spawn starts the consumer stage; sanctioned by the boundary pragma.
func spawn(b *bank, cuts <-chan *cut, outs chan<- float64) {
	go consume(b, cuts, outs)
}

// consume drains cuts in order. Working through the immutable estimator
// pointer is the clean shape; folding into the coordinator's engine-owned
// total from the consumer goroutine is the violation.
//
//dophy:window
func consume(b *bank, cuts <-chan *cut, outs chan<- float64) {
	for c := range cuts {
		v := b.est.accumulate(c.vals)
		b.total += v // want "window code touches engine-owned field total"
		outs <- v
	}
	close(outs)
}

// produce sends each cut downstream and then — the violation — reads the
// cut it no longer owns (the consumer may already be recycling it).
func produce(cuts chan<- *cut, n int) {
	var sent float64
	for i := 0; i < n; i++ {
		c := newCut(float64(i))
		//dophy:transfers -- the cut belongs to the consumer once sent
		cuts <- c
		sent += c.vals[0] // want "used after its ownership was transferred away"
	}
	_ = sent
	close(cuts)
}

// keepRaw retains epoch k's borrowed estimate past epoch k+1's estimate
// call — by the second read the estimator scratch has been rewritten.
func keepRaw(b *bank, c1, c2 *cut) float64 {
	e1 := b.est.estimate(c1.vals)
	e2 := b.est.estimate(c2.vals)
	return e1[0] + e2[0] // want "e1 was borrowed from b.est's scratch"
}

// keepCopy is the shape the real estBank uses: one explicit copy at the
// retention boundary, then the scratch may be rewritten freely.
func keepCopy(b *bank, c1, c2 *cut) float64 {
	loss := append([]float64(nil), b.est.estimate(c1.vals)...)
	e2 := b.est.estimate(c2.vals)
	return loss[0] + e2[0]
}

// publishRaw sends the borrow itself across the stage boundary: the
// consumer would race the next estimate's rewrite of the scratch.
func publishRaw(b *bank, c *cut, outs chan<- []float64) {
	outs <- b.est.estimate(c.vals) // want "sent over a channel"
}

// publishCopy hands off an owned copy instead.
func publishCopy(b *bank, c *cut, outs chan<- []float64) {
	outs <- append([]float64(nil), b.est.estimate(c.vals)...)
}

// Run wires the stages together the way experiment.Run does.
func Run(n int) float64 {
	b := newBank()
	cuts := make(chan *cut, 1)
	outs := make(chan float64, 1)
	spawn(b, cuts, outs)
	go produce(cuts, n)
	var sum float64
	for v := range outs {
		sum += v
	}
	return sum
}
