//go:build dophy_invariants

package collect

import (
	"fmt"

	"dophy/internal/topo"
)

// netInvariants audits every completed journey against PacketJourney.Check
// under the ARQ's attempt budget: the preconditions every tomography scheme
// decodes under. A violation here means estimator error is being measured
// against corrupt ground truth.
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
	if err := j.Check(n.tp, n.arq.MaxAttempts()); err != nil {
		panic(fmt.Sprintf("collect: invariant violated: journey %d/%d: %v", j.Origin, j.Seq, err))
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
