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
// estimators). The deployment core both engines share owns one and drives
// it: start the sink stage, add every completed journey to it in order,
// join it and harvest at each epoch end. A group that is not
// selected is not built, fed, harvested or estimated.
type schemeBank struct {
	// sink feeds the bank on its own goroutine during an epoch (see
	// pipeline.go); the schemes below are the sink goroutine's from the
	// stage's start until its join.
	sink    *sinkStage
	schemes SchemeSet
	lt      *topo.LinkTable
	dophy   *core.Dophy
	// dophyNA and the path records are nil, and perPacket stays empty,
	// unless schemes has Codecs; obsCol and the estimators are nil unless
	// it has Baselines. The estimators' scratch persists across epochs for
	// reuse.
	dophyNA *core.Dophy
	raw     *pathrecord.Recorder
	compact *pathrecord.Recorder
	huff    *pathrecord.Recorder
	obsCol  *epochobs.Collector
	mincEst *minc.Estimator
	lsqEst  *lsq.Estimator

	perPacket []PacketSample
}

// schemeConfigs holds every scheme's configuration for one scenario.
type schemeConfigs struct {
	dophy, dophyNA        core.Config
	raw, compact, huffman pathrecord.Config
	minc                  minc.Config
	lsq                   lsq.Config
}

// schemeConfigs is the one place a scenario becomes scheme configurations.
// Every scheme's attempt bound is the scenario's retry budget plus one, an
// aggregation threshold that budget cannot reach is dropped (aggregation is
// meaningless for tiny budgets), dophy-noagg is dophy without aggregation,
// and the path records report links under dophy's MinSamples.
func (sc Scenario) schemeConfigs() schemeConfigs {
	m := sc.Mac.MaxRetx + 1
	c := schemeConfigs{dophy: sc.Dophy, minc: minc.DefaultConfig(), lsq: lsq.DefaultConfig()}
	c.dophy.MaxAttempts = m
	if c.dophy.AggThreshold >= m {
		c.dophy.AggThreshold = 0
	}
	c.dophyNA = c.dophy
	c.dophyNA.AggThreshold = 0
	path := func(v pathrecord.Variant) pathrecord.Config {
		p := pathrecord.DefaultConfig(v)
		p.MaxAttempts = m
		p.MinSamples = c.dophy.MinSamples
		return p
	}
	c.raw, c.compact, c.huffman = path(pathrecord.Raw), path(pathrecord.Compact), path(pathrecord.Huffman)
	c.minc.MaxAttempts = m
	c.lsq.MaxAttempts = m
	return c
}

// DophyConfig is the Dophy configuration a run of sc gives its dophy
// scheme, attempt budget included; a tool that decodes the run's journeys
// outside the run (cmd/dophy-trace) decodes under it.
func (sc Scenario) DophyConfig() core.Config { return sc.schemeConfigs().dophy }

// newSchemeBank builds dophy plus the groups sc.Schemes selects, configured
// by sc.schemeConfigs. pool takes each journey back once the bank is done
// with it.
func newSchemeBank(sc Scenario, tp *topo.Topology, pool journeyPool) *schemeBank {
	cfg := sc.schemeConfigs()
	lt := tp.LinkTable()
	b := &schemeBank{schemes: sc.Schemes, lt: lt, dophy: core.New(tp, cfg.dophy)}
	b.sink = newSinkStage(b, pool)
	if b.schemes&Codecs != 0 {
		b.dophyNA = core.New(tp, cfg.dophyNA)
		b.raw = pathrecord.New(tp, cfg.raw)
		b.compact = pathrecord.New(tp, cfg.compact)
		b.huff = pathrecord.New(tp, cfg.huffman)
	}
	if b.schemes&Baselines != 0 {
		b.obsCol = epochobs.New(lt)
		b.mincEst = minc.NewEstimator(lt, cfg.minc)
		b.lsqEst = lsq.NewEstimator(lt, cfg.lsq)
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

// harvest closes the epoch in every built scheme, runs the inference
// estimators over the epoch's observations when Baselines is built, and
// returns the epoch's outcome. queueDrops is the epoch's congestion-loss
// count.
func (b *schemeBank) harvest(epoch int, truth *trace.Epoch, queueDrops int64) *EpochOutcome {
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
	eo.PerPacket = b.perPacket
	b.perPacket = nil
	if b.schemes&Baselines != 0 {
		obs := b.obsCol.EndEpoch()
		// Estimate returns borrowed estimator scratch, rewritten next epoch;
		// the SchemeEpoch outlives the epoch, so this is the one copy-out
		// boundary.
		eo.Schemes[SchemeMINC] = &SchemeEpoch{Name: SchemeMINC, Table: b.lt, Loss: append([]float64(nil), b.mincEst.Estimate(obs)...)}
		eo.Schemes[SchemeLSQ] = &SchemeEpoch{Name: SchemeLSQ, Table: b.lt, Loss: append([]float64(nil), b.lsqEst.Estimate(obs)...)}
	}
	return eo
}

func fromDophy(name string, rep *core.EpochReport) *SchemeEpoch {
	se := &SchemeEpoch{
		Name:         name,
		Table:        rep.Table,
		Loss:         make([]float64, len(rep.Est)),
		Samples:      make([]int64, len(rep.Est)),
		StdErr:       make([]float64, len(rep.Est)),
		Overhead:     rep.Overhead,
		DecodeErrors: rep.DecodeErrors,
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
		Name:         name,
		Table:        rep.Table,
		Loss:         rep.Loss,
		Samples:      rep.Samples,
		Overhead:     rep.Overhead,
		DecodeErrors: rep.DecodeErrors,
	}
}
