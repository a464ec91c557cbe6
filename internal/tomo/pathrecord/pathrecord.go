// Package pathrecord implements the explicit in-packet recording baselines
// against which Dophy's encoding efficiency is measured. All variants carry
// the same information Dophy carries (hop identity + retransmission count
// per hop) and therefore achieve the same estimation accuracy (exact counts,
// no censoring); they differ only in how many bits the annotation costs:
//
//   - Raw: byte-aligned fields as a naive implementation would use —
//     16-bit node id + 8-bit count per hop.
//   - Compact: minimal fixed-width binary — ceil(log2 degree) bits for the
//     hop (neighbour index) and ceil(log2 maxAttempts) bits for the count.
//   - Huffman: Compact's hop field plus a canonical Huffman code for the
//     counts rebuilt each epoch from the observed distribution — the best a
//     prefix code can do, still >= 1 bit per count symbol.
//
// The ladder Raw > Compact > Huffman > Dophy is experiment T1.
package pathrecord

import (
	"math"

	"dophy/internal/coding/bitio"
	"dophy/internal/coding/huffman"
	"dophy/internal/coding/model"
	"dophy/internal/collect"
	"dophy/internal/core"
	"dophy/internal/tomo/geomle"
	"dophy/internal/topo"
)

// Variant selects the encoding.
type Variant int

const (
	Raw Variant = iota
	Compact
	Huffman
)

func (v Variant) String() string {
	switch v {
	case Raw:
		return "raw"
	case Compact:
		return "compact"
	case Huffman:
		return "huffman"
	}
	return "unknown"
}

// Config parameterises the baseline.
type Config struct {
	Variant     Variant
	MaxAttempts int
	MinSamples  int64
	// SenderCounts records the sender's total transmission count instead of
	// the receiver-observed first-delivery attempt. The two coincide with
	// reliable ACKs; under ACK loss the sender's count is inflated by
	// duplicate retransmissions, biasing the estimator — the ablation
	// experiment T7 quantifies this.
	SenderCounts bool
}

// DefaultConfig matches Dophy's defaults for fair comparison.
func DefaultConfig(v Variant) Config {
	return Config{Variant: v, MaxAttempts: 8, MinSamples: 10}
}

// Recorder is the sink-side engine for one variant.
type Recorder struct {
	// inv carries the build-tag-gated conservation checks; a zero-size
	// no-op in the default build (see invariants_off.go).
	inv        recInvariants
	tp         *topo.Topology
	lt         *topo.LinkTable
	cfg        Config
	originBits int
	countBits  int
	hopBits    []int // per-node neighbour-index width

	code         *huffman.Code // Huffman variant only
	epochCounts  []uint64      // count histogram for next epoch's code
	linkObs      *geomle.Arena // per-link accumulators, indexed by lt
	w            *bitio.Writer // scratch annotation writer, reset per journey
	prefixBits   []int         // scratch annotation length after each hop
	overhead     core.Overhead
	epoch        int
	decodeErrors int64
}

// EpochReport is the per-epoch output. Loss and Samples are dense, indexed
// by Table; NaN in Loss marks links without enough samples.
type EpochReport struct {
	Epoch        int
	Table        *topo.LinkTable
	Loss         []float64 // per-attempt loss, NaN = not estimated
	Samples      []int64
	Overhead     core.Overhead
	DecodeErrors int64
}

// New builds a recorder.
func New(tp *topo.Topology, cfg Config) *Recorder {
	if cfg.MaxAttempts < 1 {
		panic("pathrecord: MaxAttempts must be >= 1")
	}
	lt := tp.LinkTable()
	r := &Recorder{
		tp:         tp,
		lt:         lt,
		cfg:        cfg,
		originBits: model.BitsFor(tp.N()),
		countBits:  model.BitsFor(cfg.MaxAttempts),
		hopBits:    make([]int, tp.N()),
		linkObs:    geomle.NewArena(lt.Len(), cfg.MaxAttempts),
		w:          bitio.NewWriter(),
	}
	for i := range r.hopBits {
		if deg := len(tp.Neighbors(topo.NodeID(i))); deg > 0 {
			r.hopBits[i] = model.BitsFor(deg)
		}
	}
	if cfg.Variant == Huffman {
		r.epochCounts = make([]uint64, cfg.MaxAttempts)
		// Initial code from the same geometric prior Dophy uses.
		r.code = huffman.Build(model.GeometricPrior(cfg.MaxAttempts, 1<<12))
	}
	return r
}

// OnJourney records one delivered packet and books its costs, returning
// its annotation size in bits (0 when ignored). A packet with a count the
// variant's field cannot hold (a sender count past MaxAttempts) is a decode
// error, and nothing of it is booked or recorded.
func (r *Recorder) OnJourney(j *collect.PacketJourney) int {
	if !j.Delivered || len(j.Hops) == 0 {
		return 0
	}
	for _, h := range j.Hops {
		if r.observed(h) > r.cfg.MaxAttempts {
			r.decodeErrors++
			return 0
		}
	}
	w := r.w
	w.Reset()
	prefixBits := r.prefixBits[:0]
	for _, h := range j.Hops {
		observed := r.observed(h)
		count := observed - 1 // retransmission count
		switch r.cfg.Variant {
		case Raw:
			w.WriteBits(uint64(h.Link.To), 16)
			w.WriteBits(uint64(count), 8)
		case Compact:
			w.WriteBits(uint64(r.lt.NeighborIndex(h.Link)), r.hopBits[h.Link.From])
			w.WriteBits(uint64(count), r.countBits)
		case Huffman:
			w.WriteBits(uint64(r.lt.NeighborIndex(h.Link)), r.hopBits[h.Link.From])
			r.code.Encode(w, count)
			r.epochCounts[count]++
		}
		r.linkObs.At(r.lt.Index(h.Link)).AddAttempt(observed)
		r.inv.onHopRecorded()
		prefixBits = append(prefixBits, w.Bits())
	}
	r.prefixBits = prefixBits
	r.overhead.Book(j.Hops, r.originBits, w.Bits(), prefixBits, 0)
	return w.Bits()
}

// observed is the attempt index the variant records for h: the
// receiver's first delivery, or the sender's count under SenderCounts.
func (r *Recorder) observed(h collect.Hop) int {
	if r.cfg.SenderCounts {
		return h.Attempts
	}
	return h.Observed
}

// EndEpoch returns the epoch's estimates and overhead and resets state.
// The Huffman variant rebuilds its code from the epoch's count histogram.
func (r *Recorder) EndEpoch() *EpochReport {
	r.epoch++
	r.inv.onEndEpoch(r)
	rep := &EpochReport{
		Epoch:        r.epoch,
		Table:        r.lt,
		Loss:         make([]float64, r.lt.Len()),
		Samples:      make([]int64, r.lt.Len()),
		Overhead:     r.overhead,
		DecodeErrors: r.decodeErrors,
	}
	for i := range rep.Loss {
		rep.Loss[i] = math.NaN()
	}
	r.linkObs.Estimates(r.cfg.MaxAttempts, r.cfg.MinSamples, func(i topo.LinkIdx, _ *geomle.Obs, p float64, samples int64) {
		rep.Loss[i] = 1 - p
		rep.Samples[i] = samples
	})
	if r.cfg.Variant == Huffman {
		total := uint64(0)
		for _, c := range r.epochCounts {
			total += c
		}
		if total > 0 {
			r.code = huffman.Build(model.Quantize(r.epochCounts, 1<<12))
			for i := range r.epochCounts {
				r.epochCounts[i] = 0
			}
		}
	}
	r.linkObs.Reset()
	r.inv.onEpochReset()
	r.overhead = core.Overhead{}
	r.decodeErrors = 0
	return rep
}
