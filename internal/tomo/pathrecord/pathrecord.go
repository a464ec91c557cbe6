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
	"fmt"
	"math"

	"dophy/internal/coding/bitio"
	"dophy/internal/coding/huffman"
	"dophy/internal/coding/model"
	"dophy/internal/collect"
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

// Overhead mirrors core.Overhead for the recording baselines.
type Overhead struct {
	Packets        int64
	Hops           int64
	AnnotationBits int64
	HeaderBits     int64
	// TransmittedBits counts annotation bits actually radiated: the prefix
	// carried into each hop times that hop's transmissions, plus the header
	// on every transmission (same accounting as core.Overhead).
	TransmittedBits int64
}

// BitsPerPacket returns mean annotation+header bits per packet.
func (o Overhead) BitsPerPacket() float64 {
	if o.Packets == 0 {
		return 0
	}
	return float64(o.AnnotationBits+o.HeaderBits) / float64(o.Packets)
}

// BytesPerPacket returns BitsPerPacket/8.
func (o Overhead) BytesPerPacket() float64 { return o.BitsPerPacket() / 8 }

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
	overhead     Overhead
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
	Overhead     Overhead
	DecodeErrors int64
}

// LossAt returns the loss estimate for l and whether l was estimated.
func (r *EpochReport) LossAt(l topo.Link) (float64, bool) {
	i := r.Table.Index(l)
	if i < 0 || math.IsNaN(r.Loss[i]) {
		return 0, false
	}
	return r.Loss[i], true
}

// SamplesAt returns the sample count behind l's estimate (0 if not
// estimated).
func (r *EpochReport) SamplesAt(l topo.Link) int64 {
	if i := r.Table.Index(l); i >= 0 {
		return r.Samples[i]
	}
	return 0
}

// EstimatedLinks returns the links with estimates, in table order.
func (r *EpochReport) EstimatedLinks() []topo.Link {
	var out []topo.Link
	for i := topo.LinkIdx(0); i < r.Table.Count(); i++ {
		if !math.IsNaN(r.Loss[i]) {
			out = append(out, r.Table.Link(i))
		}
	}
	return out
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

// OnJourney accounts and records one delivered packet, returning its
// annotation size in bits (0 when ignored).
func (r *Recorder) OnJourney(j *collect.PacketJourney) int {
	if !j.Delivered || len(j.Hops) == 0 {
		return 0
	}
	r.overhead.Packets++
	r.overhead.Hops += int64(len(j.Hops))
	r.overhead.HeaderBits += int64(r.originBits)
	w := r.w
	w.Reset()
	for _, h := range j.Hops {
		// The bits accumulated so far (plus the header) radiate on every
		// transmission of this hop.
		r.overhead.TransmittedBits += int64((w.Bits() + r.originBits) * h.Attempts)
		observed := h.Observed
		if r.cfg.SenderCounts {
			observed = h.Attempts
		}
		count := observed - 1 // retransmission count
		if count < 0 || count >= r.cfg.MaxAttempts {
			r.decodeErrors++
			return 0
		}
		li := r.lt.Index(h.Link)
		if li < 0 {
			panic(fmt.Sprintf("pathrecord: %v is not a link of the topology", h.Link))
		}
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
		r.linkObs.At(li).AddAttempt(observed)
		r.inv.onHopRecorded()
	}
	r.overhead.AnnotationBits += int64(w.Bits())
	return w.Bits()
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
	r.overhead = Overhead{}
	r.decodeErrors = 0
	return rep
}
