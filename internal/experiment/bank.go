package experiment

import (
	"dophy/internal/collect"
	"dophy/internal/core"
	"dophy/internal/tomo/epochobs"
	"dophy/internal/tomo/pathrecord"
	"dophy/internal/topo"
	"dophy/internal/trace"
)

// schemeBank is every tomography scheme scored against one packet
// realisation: dophy, its no-aggregation ablation, the raw/compact/huffman
// path records, and the epochobs collector feeding the MINC/LSQ estimation
// stage. Session and ShardedSession each own one and drive it the same way:
// start the sink stage, add every completed journey to it in order, join it
// and harvest at each epoch end, then estimate the harvested cut. A
// Dophy-only bank (ShardSpec.FullSchemes false) builds, feeds and harvests
// dophy alone.
type schemeBank struct {
	// sink feeds the bank on its own goroutine during an epoch (see
	// pipeline.go); the schemes below are the sink goroutine's from the
	// stage's start until its join.
	sink  *sinkStage
	full  bool
	dophy *core.Dophy
	// The remaining schemes are nil in a Dophy-only bank.
	dophyNA *core.Dophy
	raw     *pathrecord.Recorder
	compact *pathrecord.Recorder
	huff    *pathrecord.Recorder
	obsCol  *epochobs.Collector
	est     *estBank

	perPacket []PacketSample
}

// newSchemeBank derives the Dophy configuration from the scenario's retry
// budget and builds the schemes: all of them when full, dophy alone
// otherwise. pool takes each journey back once the bank is done with it.
func newSchemeBank(sc Scenario, tp *topo.Topology, lt *topo.LinkTable, full bool, pool journeyPool) *schemeBank {
	dcfg := sc.Dophy
	dcfg.MaxAttempts = sc.Mac.MaxRetx + 1
	if dcfg.AggThreshold >= dcfg.MaxAttempts {
		dcfg.AggThreshold = 0 // aggregation meaningless for tiny budgets
	}
	b := &schemeBank{full: full, dophy: core.New(tp, dcfg)}
	b.sink = newSinkStage(b, pool)
	if !full {
		return b
	}
	naCfg := dcfg
	naCfg.AggThreshold = 0
	b.dophyNA = core.New(tp, naCfg)
	prCfg := func(v pathrecord.Variant) pathrecord.Config {
		c := pathrecord.DefaultConfig(v)
		c.MaxAttempts = dcfg.MaxAttempts
		c.MinSamples = dcfg.MinSamples
		return c
	}
	b.raw = pathrecord.New(tp, prCfg(pathrecord.Raw))
	b.compact = pathrecord.New(tp, prCfg(pathrecord.Compact))
	b.huff = pathrecord.New(tp, prCfg(pathrecord.Huffman))
	b.obsCol = epochobs.New(lt)
	b.est = newEstBank(lt, dcfg.MaxAttempts)
	return b
}

// feed applies one completed journey to every scheme in the bank and
// samples delivered packets' Dophy annotation cost. It runs on the sink
// goroutine.
func (b *schemeBank) feed(j *collect.PacketJourney) {
	bits := b.dophy.OnJourney(j)
	if b.full {
		b.dophyNA.OnJourney(j)
		b.raw.OnJourney(j)
		b.compact.OnJourney(j)
		b.huff.OnJourney(j)
		b.obsCol.OnJourney(j)
	}
	if j.Delivered {
		b.perPacket = append(b.perPacket, PacketSample{Hops: len(j.Hops), DophyBits: bits})
	}
}

// harvest closes the epoch in every scheme and returns the cut that carries
// the epoch's outcome to the estimation stage, which adds MINC and LSQ.
// queueDrops is the epoch's congestion-loss count.
func (b *schemeBank) harvest(epoch int, truth *trace.Epoch, queueDrops int64) *epochCut {
	eo := &EpochOutcome{
		Epoch:      epoch,
		Truth:      truth,
		DirtyLinks: truth.DirtyCount(),
		QueueDrops: queueDrops,
		// Seven schemes land in a full bank's map every epoch: size it once.
		Schemes: make(map[string]*SchemeEpoch, 8),
	}
	eo.Schemes[SchemeDophy] = fromDophy(SchemeDophy, b.dophy.EndEpoch())
	var obs *epochobs.Epoch
	if b.full {
		eo.Schemes[SchemeDophyNA] = fromDophy(SchemeDophyNA, b.dophyNA.EndEpoch())
		eo.Schemes[SchemeRaw] = fromPathRecord(SchemeRaw, b.raw.EndEpoch())
		eo.Schemes[SchemeCompact] = fromPathRecord(SchemeCompact, b.compact.EndEpoch())
		eo.Schemes[SchemeHuffman] = fromPathRecord(SchemeHuffman, b.huff.EndEpoch())
		obs = b.obsCol.EndEpoch()
	}
	eo.PerPacket = b.perPacket
	b.perPacket = nil
	return &epochCut{out: eo, obs: obs}
}

func fromDophy(name string, rep *core.EpochReport) *SchemeEpoch {
	se := &SchemeEpoch{
		Name:            name,
		Table:           rep.Table,
		Loss:            make([]float64, len(rep.Est)),
		Samples:         make([]int64, len(rep.Est)),
		StdErr:          make([]float64, len(rep.Est)),
		AnnotationBits:  rep.Overhead.AnnotationBits,
		HeaderBits:      rep.Overhead.HeaderBits,
		ExtraBits:       rep.Overhead.DisseminationBits,
		TransmittedBits: rep.Overhead.TransmittedBits,
		Packets:         rep.Overhead.Packets,
		Hops:            rep.Overhead.Hops,
		DecodeErrors:    rep.DecodeErrors,
	}
	for i, est := range rep.Est {
		se.Loss[i] = est.Loss // NaN marks not-estimated, as in the report
		se.Samples[i] = est.Samples
		se.StdErr[i] = est.StdErr
	}
	return se
}

func fromPathRecord(name string, rep *pathrecord.EpochReport) *SchemeEpoch {
	return &SchemeEpoch{
		Name:            name,
		Table:           rep.Table,
		Loss:            rep.Loss,
		Samples:         rep.Samples,
		AnnotationBits:  rep.Overhead.AnnotationBits,
		HeaderBits:      rep.Overhead.HeaderBits,
		TransmittedBits: rep.Overhead.TransmittedBits,
		Packets:         rep.Overhead.Packets,
		Hops:            rep.Overhead.Hops,
		DecodeErrors:    rep.DecodeErrors,
	}
}
