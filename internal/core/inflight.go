package core

import (
	"dophy/internal/coding/arith"
	"dophy/internal/coding/bitio"
	"dophy/internal/coding/model"
	"dophy/internal/collect"
)

// This file implements the *distributed* encoding path: the annotation is
// built hop by hop inside the packet, exactly as mote firmware would do it.
// Each in-flight packet carries its completed annotation bytes plus the
// suspended arithmetic-coder registers (arith.StateBytes of constant
// overhead); every receiver resumes the coder, appends its two symbols and
// suspends again; the sink finalises and decodes. The bitstream is provably
// identical to what the sink-side convenience path (OnJourney) produces —
// TestDistributedMatchesCentral holds the two against each other — so the
// evaluation can use whichever is convenient without changing results.
//
// Model-version safety: a packet in flight across a model update keeps
// coding against the models captured at its generation (the sink knows the
// version from the epoch the packet was sent in). Updates copy-on-write the
// model references, so capture is O(1) per packet.

// packetAnno is the in-packet annotation state carried hop by hop.
type packetAnno struct {
	completed  []byte
	state      arith.State
	hasState   bool
	prefixBits []int
	countModel *model.Static
	hopModels  []*model.Static
}

// Annotator is the distributed front-end of a Dophy engine. Attach it with
// collect.Network.AttachAnnotator. Use either the Annotator or OnJourney on
// a given engine, never both (estimates would double-count).
type Annotator struct {
	d *Dophy
	// flight is keyed by in-flight journeys only: OnDeliver and OnDrop
	// delete the entry before collect hands the journey to its consumers,
	// which may recycle it.
	flight map[*collect.PacketJourney]*packetAnno
}

// NewAnnotator returns the distributed annotator for d.
func (d *Dophy) NewAnnotator() *Annotator {
	return &Annotator{d: d, flight: make(map[*collect.PacketJourney]*packetAnno)}
}

// InFlight reports how many packets currently carry annotation state.
func (a *Annotator) InFlight() int { return len(a.flight) }

// OnGenerate implements collect.Annotator: capture the model version this
// packet will encode against.
func (a *Annotator) OnGenerate(j *collect.PacketJourney) {
	// One allocation per packet: the in-flight annotation state is the
	// modeled artifact and lives exactly as long as its packet.
	a.flight[j] = &packetAnno{
		countModel: a.d.countModel,
		hopModels:  a.d.hopModels,
	}
}

// OnHop implements collect.Annotator: the receiver resumes the carried
// coder, appends its hop record and suspends again.
func (a *Annotator) OnHop(j *collect.PacketJourney, h collect.Hop) {
	pa := a.flight[j]
	if pa == nil {
		return // packet predates this annotator's attachment
	}
	var (
		e *arith.Encoder
		w *bitio.Writer
	)
	if pa.hasState {
		e, w = arith.Resume(pa.state, pa.completed)
	} else {
		w = bitio.NewWriter()
		e = arith.NewEncoder(w)
	}
	e.Encode(pa.hopModels[h.Link.From], neighborIndex(a.d.tp, h.Link.From, h.Link.To))
	e.Encode(pa.countModel, a.d.agg.Map(h.Observed-1))
	pa.state = e.Suspend(w)
	pa.completed = w.Completed()
	pa.hasState = true
	pa.prefixBits = append(pa.prefixBits, w.Bits())
}

// OnDeliver implements collect.Annotator: finalise, decode and accumulate.
func (a *Annotator) OnDeliver(j *collect.PacketJourney) {
	pa := a.flight[j]
	if pa == nil {
		return
	}
	delete(a.flight, j)
	if !pa.hasState || len(j.Hops) == 0 {
		return
	}
	e, w := arith.Resume(pa.state, pa.completed)
	e.Finish()
	a.d.deliver(j, w.Bytes(), w.Bits(), pa.prefixBits, arith.StateBytes*8, pa.countModel, pa.hopModels)
}

// OnDrop implements collect.Annotator: reclaim in-flight state.
func (a *Annotator) OnDrop(j *collect.PacketJourney) {
	delete(a.flight, j)
}
