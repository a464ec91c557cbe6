package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below it.
// xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(rank(p, len(s)), 1)-1]
}

// rank is the nearest-rank index (1-based) of the p-th percentile of n
// samples. The epsilon keeps p*n/100 from rounding up past an exact rank.
func rank(p float64, n int) int { return int(math.Ceil(p*float64(n)/100 - 1e-9)) }

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailLadder lists the high percentiles reported for timings, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90}

// highPercentile picks the highest percentile on tailLadder that still has
// at least ten samples beyond it, and returns it with its value and the
// sample count. With fewer than 100 samples no ladder percentile
// qualifies and ok is false.
func highPercentile(xs []float64) (p, v float64, n int, ok bool) {
	n = len(xs)
	for _, p := range tailLadder {
		if n-rank(p, n) >= 10 {
			return p, percentile(xs, p), n, true
		}
	}
	return 0, math.NaN(), n, false
}

// linkEst is one Dophy per-link estimate as the sink reports it.
type linkEst struct {
	from, to int
	loss     float64
	stdErr   float64
	samples  int64
}

// epochOut is everything a run's digest covers for one epoch: the sink's
// sorted Dophy estimates and the simulated statistics the end-to-end
// metrics read. A change that touches only simulator speed must leave
// every field bit-identical.
type epochOut struct {
	est            []linkEst // ascending (from, to)
	deliveryRatio  float64
	bytesPerPacket float64
	decodeErrors   int64
	dophyMAE       float64 // NaN when nothing could be scored
	// baselines is false on workloads that do not run MINC/LSQ.
	baselines bool
	mincMAE   float64
	lsqMAE    float64
}

// digest is a running FNV-64a hash over the digest fields of successive
// epochs.
type digest struct {
	h   hash.Hash64
	buf []byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) hex() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

func (d *digest) u64(x uint64) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf, x)
}

func (d *digest) f64(x float64) { d.u64(math.Float64bits(x)) }

// add folds one epoch into the digest. The inputs are exactly those the
// facade reports: sorted estimates, DeliveryRatio, BytesPerPacket,
// DecodeErrors and the baseline MAEs.
func (d *digest) add(o *epochOut) {
	d.buf = d.buf[:0]
	d.u64(uint64(len(o.est)))
	for _, e := range o.est {
		d.u64(uint64(e.from))
		d.u64(uint64(e.to))
		d.f64(e.loss)
		d.f64(e.stdErr)
		d.u64(uint64(e.samples))
	}
	d.f64(o.deliveryRatio)
	d.f64(o.bytesPerPacket)
	d.u64(uint64(o.decodeErrors))
	if o.baselines {
		d.f64(o.mincMAE)
		d.f64(o.lsqMAE)
	}
	d.h.Write(d.buf) // hash.Hash writes never fail
}

// quality accumulates the simulated-outcome metrics of one pass as sums,
// so that passes compare exactly and n/a is a zero count rather than NaN.
type quality struct {
	Epochs         int     `json:"epochs"`
	DophyMAESum    float64 `json:"dophy_mae_sum"`
	DophyScored    int     `json:"dophy_scored"`
	MincMAESum     float64 `json:"minc_mae_sum"`
	MincScored     int     `json:"minc_scored"`
	LsqMAESum      float64 `json:"lsq_mae_sum"`
	LsqScored      int     `json:"lsq_scored"`
	BytesPerPktSum float64 `json:"bytes_per_packet_sum"`
	DeliverySum    float64 `json:"delivery_ratio_sum"`
}

// add folds one epoch in. Epochs with nothing to score are skipped, not
// failed.
func (q *quality) add(o *epochOut) {
	q.Epochs++
	q.BytesPerPktSum += o.bytesPerPacket
	q.DeliverySum += o.deliveryRatio
	if !math.IsNaN(o.dophyMAE) {
		q.DophyMAESum += o.dophyMAE
		q.DophyScored++
	}
	if o.baselines && !math.IsNaN(o.mincMAE) {
		q.MincMAESum += o.mincMAE
		q.MincScored++
	}
	if o.baselines && !math.IsNaN(o.lsqMAE) {
		q.LsqMAESum += o.lsqMAE
		q.LsqScored++
	}
}

func (q *quality) merge(o quality) {
	q.Epochs += o.Epochs
	q.DophyMAESum += o.DophyMAESum
	q.DophyScored += o.DophyScored
	q.MincMAESum += o.MincMAESum
	q.MincScored += o.MincScored
	q.LsqMAESum += o.LsqMAESum
	q.LsqScored += o.LsqScored
	q.BytesPerPktSum += o.BytesPerPktSum
	q.DeliverySum += o.DeliverySum
}

// mean returns sum/n, or NaN when n is 0.
func mean(sum float64, n int) float64 {
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// selfTimes returns each span's self time: its duration minus the part of its
// interval that its children cover. Interval children are merged, so
// overlapping children are not counted twice; aggregate children (calls
// folded into one count-and-total record, with no interval) subtract
// their total, since no aggregated call runs inside another.
func selfTimes(spans []span) []int64 {
	byID := make(map[int]int, len(spans))
	for i := range spans {
		byID[spans[i].ID] = i
	}
	children := make([][]int, len(spans))
	for i := range spans {
		if pi, ok := byID[spans[i].Parent]; ok && spans[i].Parent != spans[i].ID {
			children[pi] = append(children[pi], i)
		}
	}
	out := make([]int64, len(spans))
	for i := range spans {
		p := spans[i]
		var covered int64
		var iv [][2]int64
		for _, c := range children[i] {
			ch := spans[c]
			if ch.Agg {
				covered += ch.Dur
				continue
			}
			lo, hi := max(ch.Start, p.Start), min(ch.End, p.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var curLo, curHi int64
		open := false
		for _, x := range iv {
			switch {
			case !open:
				curLo, curHi, open = x[0], x[1], true
			case x[0] <= curHi:
				curHi = max(curHi, x[1])
			default:
				covered += curHi - curLo
				curLo, curHi = x[0], x[1]
			}
		}
		if open {
			covered += curHi - curLo
		}
		out[i] = p.Dur - covered
	}
	return out
}
