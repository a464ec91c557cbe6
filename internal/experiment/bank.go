package experiment

import (
	"dophy/internal/collect"
	"dophy/internal/core"
	"dophy/internal/tomo/epochobs"
	"dophy/internal/tomo/lsq"
	"dophy/internal/tomo/minc"
	"dophy/internal/tomo/pathrecord"
	"dophy/internal/topo"
	"dophy/internal/trace"
)

// schemeBank holds the tomography schemes scored against one packet
// realisation: dophy always, plus the groups Scenario.Schemes selects —
// Codecs (its no-aggregation ablation and the raw/compact/huffman path
// records) and Baselines (the epochobs collector feeding the MINC/LSQ
// estimators). Session and ShardedSession each own one and drive it the
// same way: start the sink stage, add every completed journey to it in
// order, join it and harvest at each epoch end, then estimate the harvested
// observations. A group that is not selected is not built, fed, harvested
// or estimated.
type schemeBank struct {
	// sink feeds the bank on its own goroutine during an epoch (see
	// pipeline.go); the schemes below are the sink goroutine's from the
	// stage's start until its join.
	sink    *sinkStage
	schemes SchemeSet
	dophy   *core.Dophy
	// dophyNA and the path records are nil, and perPacket stays empty,
	// unless schemes has Codecs; obsCol and est are nil unless it has
	// Baselines.
	dophyNA *core.Dophy
	raw     *pathrecord.Recorder
	compact *pathrecord.Recorder
	huff    *pathrecord.Recorder
	obsCol  *epochobs.Collector
	est     *estBank

	perPacket []PacketSample
}

// newSchemeBank derives the Dophy configuration from the scenario's retry
// budget and builds dophy plus the groups sc.Schemes selects. pool takes
// each journey back once the bank is done with it.
func newSchemeBank(sc Scenario, tp *topo.Topology, lt *topo.LinkTable, pool journeyPool) *schemeBank {
	dcfg := sc.Dophy
	dcfg.MaxAttempts = sc.Mac.MaxRetx + 1
	if dcfg.AggThreshold >= dcfg.MaxAttempts {
		dcfg.AggThreshold = 0 // aggregation meaningless for tiny budgets
	}
	b := &schemeBank{schemes: sc.Schemes, dophy: core.New(tp, dcfg)}
	b.sink = newSinkStage(b, pool)
	if b.schemes&Codecs != 0 {
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
	}
	if b.schemes&Baselines != 0 {
		b.obsCol = epochobs.New(lt)
		b.est = newEstBank(lt, dcfg.MaxAttempts)
	}
	return b
}

// feed applies one completed journey to every built scheme and, when
// Codecs is built, samples delivered packets' Dophy annotation cost. It
// runs on the sink goroutine.
func (b *schemeBank) feed(j *collect.PacketJourney) {
	bits := b.dophy.OnJourney(j)
	if b.schemes&Codecs != 0 {
		b.dophyNA.OnJourney(j)
		b.raw.OnJourney(j)
		b.compact.OnJourney(j)
		b.huff.OnJourney(j)
		if j.Delivered {
			b.perPacket = append(b.perPacket, PacketSample{Hops: len(j.Hops), DophyBits: bits})
		}
	}
	if b.schemes&Baselines != 0 {
		b.obsCol.OnJourney(j)
	}
}

// harvest closes the epoch in every built scheme and returns the epoch's
// outcome with the observations estBank.estimate turns into MINC and LSQ
// (nil unless Baselines is built). queueDrops is the epoch's
// congestion-loss count.
func (b *schemeBank) harvest(epoch int, truth *trace.Epoch, queueDrops int64) (*EpochOutcome, *epochobs.Epoch) {
	eo := &EpochOutcome{
		Epoch:      epoch,
		Truth:      truth,
		QueueDrops: queueDrops,
		// At most seven schemes land in the map: size it once for all.
		Schemes: make(map[string]*SchemeEpoch, 8),
	}
	eo.Schemes[SchemeDophy] = fromDophy(SchemeDophy, b.dophy.EndEpoch())
	if b.schemes&Codecs != 0 {
		eo.Schemes[SchemeDophyNA] = fromDophy(SchemeDophyNA, b.dophyNA.EndEpoch())
		eo.Schemes[SchemeRaw] = fromPathRecord(SchemeRaw, b.raw.EndEpoch())
		eo.Schemes[SchemeCompact] = fromPathRecord(SchemeCompact, b.compact.EndEpoch())
		eo.Schemes[SchemeHuffman] = fromPathRecord(SchemeHuffman, b.huff.EndEpoch())
	}
	var obs *epochobs.Epoch
	if b.schemes&Baselines != 0 {
		obs = b.obsCol.EndEpoch()
	}
	eo.PerPacket = b.perPacket
	b.perPacket = nil
	return eo, obs
}

// estBank holds the inference estimators, whose scratch persists across
// epochs for reuse.
type estBank struct {
	lt      *topo.LinkTable
	mincEst *minc.Estimator
	lsqEst  *lsq.Estimator
}

// newEstBank builds the MINC/LSQ estimator pair.
func newEstBank(lt *topo.LinkTable, maxAttempts int) *estBank {
	mcfg := minc.DefaultConfig()
	mcfg.MaxAttempts = maxAttempts
	lcfg := lsq.DefaultConfig()
	lcfg.MaxAttempts = maxAttempts
	return &estBank{lt: lt, mincEst: minc.NewEstimator(lt, mcfg), lsqEst: lsq.NewEstimator(lt, lcfg)}
}

// estimate runs the inference estimators over one epoch's observations and
// completes its outcome. A nil bank (Baselines not selected) returns the
// outcome as harvested.
func (b *estBank) estimate(eo *EpochOutcome, obs *epochobs.Epoch) *EpochOutcome {
	if b == nil {
		return eo
	}
	// Estimate returns borrowed estimator scratch, rewritten next epoch; the
	// SchemeEpoch outlives the epoch, so this is the one copy-out boundary.
	eo.Schemes[SchemeMINC] = &SchemeEpoch{Name: SchemeMINC, Table: b.lt, Loss: append([]float64(nil), b.mincEst.Estimate(obs)...)}
	eo.Schemes[SchemeLSQ] = &SchemeEpoch{Name: SchemeLSQ, Table: b.lt, Loss: append([]float64(nil), b.lsqEst.Estimate(obs)...)}
	return eo
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
