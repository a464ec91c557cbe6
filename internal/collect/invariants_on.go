//go:build dophy_invariants

package collect

import (
	"fmt"

	"dophy/internal/topo"
)

// netInvariants audits every completed journey: the hop chain must be
// connected from the origin, each hop's receiver-observed first-delivery
// attempt must lie within the sender's ground-truth attempt count, and a
// delivered packet must end at the sink. These are the preconditions every
// tomography scheme decodes under; a violation here means estimator error
// is being measured against corrupt ground truth.
//
// It also audits the journey lifecycle behind Network.Recycle: a journey is
// in flight from generate to finish, finished until recycled, and recycled
// until generate reuses it. Finishing a journey twice, recycling one that
// is in flight or already recycled, or reusing one that was never recycled
// panics: each would let two packets share one record.
type netInvariants struct{}

// journeyLife is a journey's lifecycle state; the zero value is in flight,
// which is what generate's reset of a reused record leaves behind.
type journeyLife struct{ state uint8 }

const (
	lifeInFlight uint8 = iota
	lifeFinished
	lifeRecycled
)

var lifeNames = [...]string{"in flight", "finished", "recycled"}

func (netInvariants) onRecycle(j *PacketJourney) {
	if j.life.state != lifeFinished {
		panic(fmt.Sprintf("collect: invariant violated: recycling journey %d/%d while %s",
			j.Origin, j.Seq, lifeNames[j.life.state]))
	}
	j.life.state = lifeRecycled
}

func (netInvariants) onReuse(j *PacketJourney) {
	if j.life.state != lifeRecycled {
		panic(fmt.Sprintf("collect: invariant violated: reusing journey %d/%d while %s",
			j.Origin, j.Seq, lifeNames[j.life.state]))
	}
}

func (netInvariants) onFinish(n *Network, j *PacketJourney) {
	if j.life.state != lifeInFlight {
		panic(fmt.Sprintf("collect: invariant violated: finishing journey %d/%d while %s",
			j.Origin, j.Seq, lifeNames[j.life.state]))
	}
	j.life.state = lifeFinished
	at := j.Origin
	for i, h := range j.Hops {
		if h.Link.From != at {
			panic(fmt.Sprintf("collect: invariant violated: journey %d/%d hop %d starts at %v, previous hop ended at %v",
				j.Origin, j.Seq, i, h.Link.From, at))
		}
		if h.Attempts < 1 {
			panic(fmt.Sprintf("collect: invariant violated: journey %d/%d hop %d has %d attempts",
				j.Origin, j.Seq, i, h.Attempts))
		}
		if h.Observed < 1 || h.Observed > h.Attempts {
			panic(fmt.Sprintf("collect: invariant violated: journey %d/%d hop %d observed attempt %d outside [1,%d]",
				j.Origin, j.Seq, i, h.Observed, h.Attempts))
		}
		at = h.Link.To
	}
	if j.Delivered && at != topo.Sink {
		panic(fmt.Sprintf("collect: invariant violated: delivered journey %d/%d ends at %v, not the sink",
			j.Origin, j.Seq, at))
	}
	if j.Completed < j.Generated {
		panic(fmt.Sprintf("collect: invariant violated: journey %d/%d completed at %v before generation at %v",
			j.Origin, j.Seq, j.Completed, j.Generated))
	}
}

// onRelease audits the bounded-queue accounting after node at finishes a
// transmission: a node left idle with queued packets would never drain.
func (netInvariants) onRelease(n *Network, at topo.NodeID) {
	if n.cfg.QueueCap == 0 {
		return
	}
	if len(n.queues[at]) > 0 && !n.busy[at] {
		panic(fmt.Sprintf("collect: invariant violated: node %d idle with %d queued packets", at, len(n.queues[at])))
	}
}
