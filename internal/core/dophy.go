// Package core implements Dophy, the paper's contribution: fine-grained
// loss tomography for dynamic sensor networks built on arithmetic-coded
// in-packet retransmission counts.
//
// Mechanism. Every link-layer frame carries its attempt number, so the
// receiver of a hop knows on which attempt the packet first arrived. The
// receiver appends two arithmetic-coded symbols to the packet's annotation
// field: its own identity (coded as an index into the sender's neighbour
// table — the sink knows the topology, so log2(degree) bits suffice) and the
// hop's retransmission count (coded against a probability model shared by
// all nodes and the sink). Because the vast majority of hops need zero
// retransmissions, the count symbol costs a fraction of a bit.
//
// Optimisation 1 — symbol aggregation: counts at or above a threshold A
// collapse into one tail symbol, shrinking the alphabet and bounding the
// annotation. The estimator treats tail observations as right-censored.
//
// Optimisation 2 — periodic model update: the sink re-estimates the global
// retransmission-count distribution and floods a quantised frequency table
// back into the network every UpdateEvery epochs; in-packet cost then tracks
// the cross-entropy of the true distribution under the shared model.
//
// Estimation: per-link censored truncated-geometric MLE (internal/tomo/geomle)
// over the decoded per-hop counts. Because counts are attributed to links —
// not to end-to-end paths — routing dynamics do not smear the estimates,
// which is the paper's core advantage over path-based tomography.
package core

import (
	"fmt"
	"math"

	"dophy/internal/coding/arith"
	"dophy/internal/coding/bitio"
	"dophy/internal/coding/model"
	"dophy/internal/collect"
	"dophy/internal/tomo/geomle"
	"dophy/internal/topo"
)

const (
	// countModelMass is the total mass of the quantised shared count model.
	countModelMass uint32 = 1 << 12
	// hopModelMass is the quantisation mass of disseminated hop tables.
	hopModelMass uint32 = 256
)

// Config parameterises Dophy.
type Config struct {
	// MaxAttempts is the MAC attempt budget per hop (retransmissions + 1).
	MaxAttempts int
	// AggThreshold is optimisation 1's threshold A on retransmission counts
	// (counts >= A share one tail symbol). 0 disables aggregation.
	AggThreshold int
	// UpdateEvery is optimisation 2's period in epochs between model
	// updates (0 = never update; keep the initial prior forever).
	UpdateEvery int
	// MinSamples is the minimum per-link observations required to report an
	// estimate for that link in an epoch.
	MinSamples int64
	// HopModelUpdateEvery extends optimisation 2 to the hop-identity
	// symbols: every this-many epochs each node's observed next-hop
	// distribution replaces the uniform neighbour-index model, so a node
	// that forwards 85% of its traffic to one parent pays ~0.6 bits for
	// that hop instead of log2(degree). Each update costs a local broadcast
	// of the node's table plus a unicast to the sink (accounted in
	// DisseminationBits). 0 disables (uniform hop models, paper baseline).
	HopModelUpdateEvery int
	// ObsDecay selects the estimation window. 0 (default) resets per-link
	// observations at every epoch boundary (pure per-epoch windows, the
	// paper's behaviour). A value in (0,1] multiplies accumulated counts by
	// that factor at each boundary instead, giving an exponentially-
	// forgotten stream estimator: smoother on slow links, lagging on fast
	// changes (the F10 trade-off).
	ObsDecay float64
}

// DefaultConfig returns the settings used throughout the evaluation.
func DefaultConfig() Config {
	return Config{
		MaxAttempts:  8,
		AggThreshold: 3,
		UpdateEvery:  1,
		MinSamples:   10,
	}
}

func (c Config) validate() {
	if c.MaxAttempts < 1 {
		panic("core: MaxAttempts must be >= 1")
	}
	if c.AggThreshold < 0 || c.AggThreshold >= c.MaxAttempts {
		// Threshold == MaxAttempts-1 is the last meaningful split; anything
		// beyond disables aggregation, which callers express with 0.
		if c.AggThreshold != 0 {
			panic(fmt.Sprintf("core: AggThreshold %d outside [1,%d]", c.AggThreshold, c.MaxAttempts-1))
		}
	}
	if c.UpdateEvery < 0 {
		panic("core: UpdateEvery must be >= 0")
	}
	if c.HopModelUpdateEvery < 0 {
		panic("core: HopModelUpdateEvery must be >= 0")
	}
	if c.ObsDecay < 0 || c.ObsDecay > 1 {
		panic("core: ObsDecay must be in [0,1]")
	}
}

// Overhead accumulates Dophy's transmission costs for one epoch.
type Overhead struct {
	Packets int64 // delivered packets annotated
	Hops    int64 // hop records encoded
	// AnnotationBits is the sum of final (flushed) annotation sizes.
	AnnotationBits int64
	// HeaderBits is the fixed per-packet origin-identifier cost.
	HeaderBits int64
	// TransmittedBits counts annotation bits actually radiated: the prefix
	// carried into each hop times that hop's transmissions, plus the header
	// on every transmission. This is the energy-relevant figure.
	TransmittedBits int64
	// DisseminationBits is the model-update flood cost (optimisation 2).
	DisseminationBits int64
	// InFlightStateBits counts radiated coder-register bytes in the
	// distributed encoding path (zero for the sink-side path, which models
	// the same packets without carrying state).
	InFlightStateBits int64
}

// BitsPerPacket returns mean final annotation+header bits per packet.
func (o Overhead) BitsPerPacket() float64 {
	if o.Packets == 0 {
		return 0
	}
	return float64(o.AnnotationBits+o.HeaderBits) / float64(o.Packets)
}

// BytesPerPacket returns BitsPerPacket in bytes.
func (o Overhead) BytesPerPacket() float64 { return o.BitsPerPacket() / 8 }

// LinkEstimate is one link's per-epoch estimation result.
type LinkEstimate struct {
	Loss    float64 // estimated per-attempt loss ratio
	StdErr  float64 // observed-information standard error (0 if degenerate)
	Samples int64   // observations behind the estimate
}

// EpochReport is the output of one estimation epoch. Est is dense, indexed
// by Table; a NaN Loss marks links without an estimate this epoch
// (estimators never legitimately produce NaN).
type EpochReport struct {
	Epoch        int
	Table        *topo.LinkTable
	Est          []LinkEstimate
	Overhead     Overhead
	DecodeErrors int64
	ModelUpdated bool
}

// At returns l's estimate and whether l was estimated this epoch.
func (r *EpochReport) At(l topo.Link) (LinkEstimate, bool) {
	i := r.Table.Index(l)
	if i < 0 || math.IsNaN(r.Est[i].Loss) {
		return LinkEstimate{}, false
	}
	return r.Est[i], true
}

// NumEstimated counts links with an estimate this epoch.
func (r *EpochReport) NumEstimated() int {
	n := 0
	for i := range r.Est {
		if !math.IsNaN(r.Est[i].Loss) {
			n++
		}
	}
	return n
}

// SortedLinks returns the estimated links in deterministic (table) order.
func (r *EpochReport) SortedLinks() []topo.Link {
	var out []topo.Link
	for i := topo.LinkIdx(0); i < r.Table.Count(); i++ {
		if !math.IsNaN(r.Est[i].Loss) {
			out = append(out, r.Table.Link(i))
		}
	}
	return out
}

// Dophy is the sink-side engine plus the (simulated) in-network annotators.
type Dophy struct {
	// inv carries the build-tag-gated conservation checks; a zero-size
	// no-op in the default build (see invariants_off.go).
	inv coreInvariants
	tp  *topo.Topology
	lt  *topo.LinkTable
	cfg Config
	agg model.Aggregator

	countModel *model.Static
	hopModels  []*model.Static // neighbour-index model per sender node

	originBits int
	meanHops   float64 // topology mean hop depth, for dissemination costing

	epoch        int
	linkObs      *geomle.Arena // per-link accumulators, indexed by lt
	symbolWindow []uint64      // decoded count symbols since last model update
	hopWindow    [][]uint64    // decoded next-hop indices per sender node
	overhead     Overhead
	decodeErrors int64

	// Scratch state reused across encode/decode calls. A Dophy engine is
	// driven from a single sequential simulation loop (one journey at a
	// time), so reuse is safe and keeps the per-packet hot path free of
	// heap allocations. The slices returned by encode/decode alias these
	// buffers and are only valid until the next call.
	encWriter *bitio.Writer
	encCoder  *arith.Encoder
	decReader *bitio.Reader
	decCoder  *arith.Decoder
	prefixBuf []int
	dataBuf   []byte
	linkBuf   []topo.Link
	countBuf  []int
}

// New builds a Dophy engine over the given topology.
func New(tp *topo.Topology, cfg Config) *Dophy {
	cfg.validate()
	d := &Dophy{
		tp:  tp,
		lt:  tp.LinkTable(),
		cfg: cfg,
		agg: model.Aggregator{Threshold: cfg.AggThreshold, MaxCount: cfg.MaxAttempts - 1},
	}
	d.symbolWindow = make([]uint64, d.agg.NumSymbols())
	d.countModel = model.NewStatic(model.GeometricPrior(d.agg.NumSymbols(), countModelMass))
	d.hopModels = make([]*model.Static, tp.N())
	d.hopWindow = make([][]uint64, tp.N())
	for i := 0; i < tp.N(); i++ {
		if deg := len(tp.Neighbors(topo.NodeID(i))); deg > 0 {
			d.hopModels[i] = model.Uniform(deg)
			d.hopWindow[i] = make([]uint64, deg)
		}
	}
	d.originBits = model.BitsFor(tp.N())
	hops := tp.HopCounts()
	sum, cnt := 0, 0
	for _, h := range hops {
		if h > 0 {
			sum += h
			cnt++
		}
	}
	if cnt > 0 {
		d.meanHops = float64(sum) / float64(cnt)
	}
	d.linkObs = geomle.NewArena(d.lt.Len(), d.exactLen())
	d.encWriter = bitio.NewWriter()
	d.encCoder = arith.NewEncoder(d.encWriter)
	d.decReader = bitio.NewReader(nil)
	d.decCoder = arith.NewDecoder(d.decReader)
	return d
}

// exactLen returns the number of exact attempt bins in link observations.
func (d *Dophy) exactLen() int {
	if d.cfg.AggThreshold > 0 {
		return d.cfg.AggThreshold
	}
	return d.cfg.MaxAttempts
}

// OnJourney processes one completed packet and returns the packet's final
// annotation size in bits (0 when ignored). Dropped packets carry no
// annotation to the sink and are ignored (their absence is what the
// delivery-ratio baselines consume instead).
func (d *Dophy) OnJourney(j *collect.PacketJourney) int {
	if !j.Delivered || len(j.Hops) == 0 {
		return 0
	}
	data, finalBits, prefixBits := d.encode(j)
	d.deliver(j, data, finalBits, prefixBits, 0, d.countModel, d.hopModels)
	return finalBits
}

// deliver is what one delivered annotation contributes, on either encoding
// path: it books the packet's costs, decodes data under the models the
// packet was encoded with, checks the decode against the journey's ground
// truth and accumulates the hop records. prefixBits[i] is the annotation's
// length after hop i; stateBits is the coder-register overhead carried into
// every hop after the first (0 on the sink-side path).
func (d *Dophy) deliver(j *collect.PacketJourney, data []byte, finalBits int, prefixBits []int, stateBits int, countModel *model.Static, hopModels []*model.Static) {
	d.overhead.Packets++
	d.overhead.Hops += int64(len(j.Hops))
	d.overhead.AnnotationBits += int64(finalBits)
	d.overhead.HeaderBits += int64(d.originBits)
	// Transmitted bits: hop i radiates the annotation accumulated through
	// hop i-1 (receiver-side appends), plus the header, once per attempt.
	for i, h := range j.Hops {
		carried := d.originBits
		if i > 0 {
			carried += prefixBits[i-1] + stateBits
			d.overhead.InFlightStateBits += int64(stateBits * h.Attempts)
		}
		d.overhead.TransmittedBits += int64(carried * h.Attempts)
	}

	hops, counts, err := d.decode(j.Origin, data, len(j.Hops), countModel, hopModels)
	if err != nil {
		d.decodeErrors++
		return
	}
	// Cross-check against ground truth: any divergence is a codec bug.
	for i := range hops {
		if hops[i] != j.Hops[i].Link || counts[i] != d.agg.Map(j.Hops[i].Observed-1) {
			d.decodeErrors++
			return
		}
	}
	d.accumulate(hops, counts)
}

// accumulate folds decoded hop records into the per-epoch observations.
func (d *Dophy) accumulate(hops []topo.Link, counts []int) {
	d.inv.onAccumulate(len(hops))
	for i, l := range hops {
		sym := counts[i]
		d.symbolWindow[sym]++
		if d.cfg.HopModelUpdateEvery > 0 {
			d.hopWindow[l.From][d.lt.NeighborIndex(l)]++
		}
		obs := d.linkObs.At(d.lt.Index(l))
		if d.agg.IsTail(sym) {
			obs.Censored++
		} else {
			obs.AddAttempt(sym + 1)
		}
	}
}

// encode produces the annotation bytes for a delivered journey, its final
// bit length, and the prefix bit lengths after each hop record (what the
// packet carried in flight). The returned slices alias the engine's scratch
// buffers and are only valid until the next encode call.
func (d *Dophy) encode(j *collect.PacketJourney) (data []byte, finalBits int, prefixBits []int) {
	w := d.encWriter
	w.Reset()
	e := d.encCoder
	e.Reset(w)
	prefixBits = d.prefixBuf[:0]
	for _, h := range j.Hops {
		hm := d.hopModels[h.Link.From]
		idx := neighborIndex(d.tp, h.Link.From, h.Link.To)
		e.Encode(hm, idx)
		e.Encode(d.countModel, d.agg.Map(h.Observed-1))
		prefixBits = append(prefixBits, w.Bits())
	}
	d.prefixBuf = prefixBits
	e.Finish()
	d.dataBuf = w.AppendBytes(d.dataBuf[:0])
	return d.dataBuf, w.Bits(), prefixBits
}

// decode reconstructs the hop links and count symbols from an annotation
// under an explicit model version: the one the packet was encoded under,
// which for an in-flight packet spanning a model update is not the current
// one. The returned slices alias the engine's scratch buffers and are only
// valid until the next decode call.
func (d *Dophy) decode(origin topo.NodeID, data []byte, nHops int, countModel *model.Static, hopModels []*model.Static) ([]topo.Link, []int, error) {
	d.decReader.Reset(data)
	dec := d.decCoder
	dec.Reset(d.decReader)
	cur := origin
	links := d.linkBuf[:0]
	counts := d.countBuf[:0]
	for cur != topo.Sink {
		if len(links) >= nHops {
			return nil, nil, fmt.Errorf("core: decode overran %d hops", nHops)
		}
		hm := hopModels[cur]
		if hm == nil {
			return nil, nil, fmt.Errorf("core: node %d has no neighbours", cur)
		}
		idx, err := dec.Decode(hm)
		if err != nil {
			return nil, nil, err
		}
		next := d.tp.Neighbors(cur)[idx]
		sym, err := dec.Decode(countModel)
		if err != nil {
			return nil, nil, err
		}
		links = append(links, topo.Link{From: cur, To: next})
		counts = append(counts, sym)
		cur = next
	}
	d.linkBuf, d.countBuf = links, counts
	return links, counts, nil
}

// neighborIndex returns to's index in from's sorted neighbour list.
func neighborIndex(tp *topo.Topology, from, to topo.NodeID) int {
	i := tp.LinkTable().NeighborIndex(topo.Link{From: from, To: to})
	if i < 0 {
		panic(fmt.Sprintf("core: %d is not a neighbour of %d", to, from))
	}
	return i
}

// EndEpoch closes the current epoch: returns the per-link estimates and
// overhead, performs the periodic model update when due, and resets the
// per-epoch accumulators.
func (d *Dophy) EndEpoch() *EpochReport {
	d.epoch++
	d.inv.onEndEpoch(d)
	rep := &EpochReport{
		Epoch:        d.epoch,
		Table:        d.lt,
		Est:          make([]LinkEstimate, d.lt.Len()),
		Overhead:     d.overhead,
		DecodeErrors: d.decodeErrors,
	}
	for i := range rep.Est {
		rep.Est[i].Loss = math.NaN()
	}
	m := d.cfg.MaxAttempts
	d.linkObs.Estimates(m, d.cfg.MinSamples, func(i topo.LinkIdx, obs *geomle.Obs, p float64, samples int64) {
		rep.Est[i] = LinkEstimate{Loss: 1 - p, StdErr: obs.StdErr(m, p), Samples: samples}
	})
	if d.cfg.UpdateEvery > 0 && d.epoch%d.cfg.UpdateEvery == 0 && windowTotal(d.symbolWindow) > 0 {
		freq := model.Quantize(d.symbolWindow, countModelMass)
		d.countModel = model.NewStatic(freq)
		// Flood dissemination: every node rebroadcasts the table once.
		rep.Overhead.DisseminationBits += int64(model.TableBits(len(freq), countModelMass) * d.tp.N())
		rep.ModelUpdated = true
		for i := range d.symbolWindow {
			d.symbolWindow[i] = 0
		}
		d.inv.onWindowReset()
	}
	if d.cfg.HopModelUpdateEvery > 0 && d.epoch%d.cfg.HopModelUpdateEvery == 0 {
		rep.Overhead.DisseminationBits += d.updateHopModels()
	}
	if d.cfg.ObsDecay > 0 {
		// Streaming estimator: forget exponentially instead of resetting.
		// Links whose evidence decays below half an observation are zeroed
		// outright — the dense equivalent of deleting the map entry.
		for i := topo.LinkIdx(0); i < d.lt.Count(); i++ {
			obs := d.linkObs.At(i)
			if obs.Total() == 0 {
				continue
			}
			obs.Decay(d.cfg.ObsDecay)
			if obs.Total() < 0.5 {
				obs.Clear()
			}
		}
	} else {
		d.linkObs.Reset()
	}
	d.inv.onEpochReset(d)
	d.overhead = Overhead{}
	d.decodeErrors = 0
	return rep
}

// updateHopModels replaces each active node's neighbour-index model with
// its observed next-hop distribution and returns the dissemination cost:
// the node broadcasts its own table once locally (its neighbours encode its
// records) and unicasts it to the sink (which decodes them), so each table
// is radiated ~(1 + meanHops) times.
func (d *Dophy) updateHopModels() int64 {
	var bits int64
	// Copy-on-write: in-flight packets hold the previous slice and keep
	// decoding against the models they were encoded under.
	d.hopModels = append([]*model.Static(nil), d.hopModels...)
	for n := range d.hopWindow {
		hist := d.hopWindow[n]
		if windowTotal(hist) == 0 {
			continue
		}
		freq := model.Quantize(hist, hopModelMass)
		d.hopModels[n] = model.NewStatic(freq)
		tb := model.TableBits(len(freq), hopModelMass)
		bits += int64(float64(tb) * (1 + d.meanHops))
		for i := range hist {
			hist[i] = 0
		}
	}
	return bits
}

func windowTotal(w []uint64) uint64 {
	var t uint64
	for _, c := range w {
		t += c
	}
	return t
}

// CountSymbols returns the alphabet size after aggregation.
func (d *Dophy) CountSymbols() int { return d.agg.NumSymbols() }

// OriginBits returns the fixed per-packet header cost in bits.
func (d *Dophy) OriginBits() int { return d.originBits }
