// Package energy converts the simulator's transmission accounting into
// radio energy, using constants representative of CC2420-class 802.15.4
// transceivers (the hardware the paper's TinyOS implementation targets).
// It lets experiments express annotation overheads in the unit battery-
// powered deployments actually care about: microjoules per packet and
// millijoules per node per day.
package energy

// Params models a byte-oriented low-power radio.
type Params struct {
	// TxPerByteMicroJ is the marginal transmit energy per payload byte.
	TxPerByteMicroJ float64
	// RxPerByteMicroJ is the marginal receive energy per payload byte
	// (every unicast byte is also received once; overhearing is ignored).
	RxPerByteMicroJ float64
	// PacketOverheadBytes is the PHY preamble/SFD/header cost radiated per
	// frame regardless of payload.
	PacketOverheadBytes int
}

// DefaultParams approximates a CC2420 at 0 dBm, 250 kbps: ~17.4 mA TX and
// ~18.8 mA RX at 3 V, i.e. about 1.67/1.80 µJ per byte time (32 µs).
func DefaultParams() Params {
	return Params{
		TxPerByteMicroJ:     1.67,
		RxPerByteMicroJ:     1.80,
		PacketOverheadBytes: 11,
	}
}

// PerByteMicroJ is the combined TX+RX cost of moving one payload byte one
// hop.
func (p Params) PerByteMicroJ() float64 {
	return p.TxPerByteMicroJ + p.RxPerByteMicroJ
}

// FrameMicroJ returns the TX+RX energy of one frame carrying payloadBytes.
func (p Params) FrameMicroJ(payloadBytes float64) float64 {
	total := payloadBytes + float64(p.PacketOverheadBytes)
	return total * p.PerByteMicroJ()
}

// MarginalMicroJ returns the energy attributable to extraBytes of payload
// riding on frames that are transmitted anyway — the right cost model for
// in-packet annotations, which never add frames, only bytes.
func (p Params) MarginalMicroJ(extraBytes float64) float64 {
	return extraBytes * p.PerByteMicroJ()
}

// Report summarises a scheme's energy footprint for one run.
type Report struct {
	// AnnotationMicroJPerPacket is the marginal radio energy of carrying
	// the scheme's annotation across all of a packet's transmissions.
	AnnotationMicroJPerPacket float64
	// DisseminationMicroJPerPacket amortises model-update floods.
	DisseminationMicroJPerPacket float64
	// TotalMicroJPerPacket is the sum.
	TotalMicroJPerPacket float64
}

// Cost converts radiated bit counters into a Report. transmittedBits is the
// scheme's radiated annotation volume (prefix x attempts accounting),
// disseminationBits covers model-update floods, packets normalises.
func Cost(p Params, transmittedBits, disseminationBits, packets int64) Report {
	if packets <= 0 {
		return Report{}
	}
	annot := p.MarginalMicroJ(float64(transmittedBits) / 8 / float64(packets))
	// Dissemination rides on dedicated frames: charge full frame cost.
	dissem := p.FrameMicroJ(float64(disseminationBits)/8) / float64(packets)
	return Report{
		AnnotationMicroJPerPacket:    annot,
		DisseminationMicroJPerPacket: dissem,
		TotalMicroJPerPacket:         annot + dissem,
	}
}
