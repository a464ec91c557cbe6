package experiment

import (
	"math"
	"reflect"
	"sort"
	"testing"
)

// maskNaN prepares a RunResult for reflect.DeepEqual: the NaN markers in
// scheme estimates (NaN != NaN) are replaced by a sentinel. Every other
// field is compared as produced.
func maskNaN(r *RunResult) {
	for _, eo := range r.Epochs {
		for _, se := range eo.Schemes {
			for _, v := range [][]float64{se.Loss, se.StdErr} {
				for i := range v {
					if math.IsNaN(v[i]) {
						v[i] = -424242
					}
				}
			}
		}
	}
}

// stepSession is the reference for Run: a fresh session stepped through
// RunEpoch, with the run totals folded independently of runEpochs.
func stepSession(sc Scenario, s epochEngine) *RunResult {
	res := &RunResult{Scenario: sc, Topology: s.Topology()}
	var packets, changes int64
	for e := 0; e < sc.Epochs; e++ {
		eo := s.RunEpoch()
		res.Epochs = append(res.Epochs, eo)
		packets += eo.Truth.Delivered
		changes += eo.Truth.ParentChanges
	}
	if sc.Epochs > 0 {
		res.MeanPacketsPerEpoch = float64(packets) / float64(sc.Epochs)
		res.ParentChangesPerNodePerEpoch =
			float64(changes) / float64(sc.Epochs) / math.Max(1, float64(s.Topology().N()-1))
	}
	res.BeaconsSent = s.BeaconsSent()
	res.Events = s.Events()
	return res
}

// TestRunMatchesRunEpoch pins Run to stepping a session through RunEpoch:
// every epoch outcome — truth, schemes, estimates, report bits — and the run
// totals folded from each outcome's truth must be identical, with the
// estimators' scratch reused across epochs.
func TestRunMatchesRunEpoch(t *testing.T) {
	t.Run("fromscratch", func(t *testing.T) {
		sc := smallScenario(17)
		sc.Epochs = 4
		ref := stepSession(sc, NewSession(sc))
		got := Run(sc)
		maskNaN(ref)
		maskNaN(got)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("Run diverged from stepping RunEpoch:\nref: %+v\ngot: %+v", ref, got)
		}
	})
}

// TestRunShardedMatchesRunEpoch is the same contract for the sharded
// engine: RunSharded with every scheme attached equals stepping a
// ShardedSession through RunEpoch, unsharded and 2-way sharded.
func TestRunShardedMatchesRunEpoch(t *testing.T) {
	sc := smallScenario(29)
	sc.Epochs = 3
	for _, k := range []int{1, 2} {
		sp := DefaultShardSpec(k)
		sp.FullSchemes = true
		s := NewShardedSession(sc, sp)
		ref := stepSession(sc, s)
		s.Close()
		got := RunSharded(sc, sp)
		maskNaN(ref)
		maskNaN(got)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("shards=%d: RunSharded diverged from stepping RunEpoch:\nref: %+v\ngot: %+v", k, ref, got)
		}
	}
}

// TestRunZeroEpochs checks both engines' loops return an empty run when
// there is nothing to step.
func TestRunZeroEpochs(t *testing.T) {
	sc := smallScenario(23)
	sc.Epochs = 0
	if res := Run(sc); len(res.Epochs) != 0 {
		t.Fatalf("zero-epoch Run produced %d epochs", len(res.Epochs))
	}
	if res := RunSharded(sc, DefaultShardSpec(2)); len(res.Epochs) != 0 {
		t.Fatalf("zero-epoch RunSharded produced %d epochs", len(res.Epochs))
	}
}

// TestSchemeSetsMatchAcrossEngines ties the two engines' scheme banks
// together: a full sharded bank harvests exactly the schemes Session does,
// and a Dophy-only bank harvests dophy alone.
func TestSchemeSetsMatchAcrossEngines(t *testing.T) {
	names := func(eo *EpochOutcome) []string {
		var out []string
		for name := range eo.Schemes {
			out = append(out, name)
		}
		sort.Strings(out)
		return out
	}
	sc := smallScenario(31)
	want := []string{SchemeCompact, SchemeDophy, SchemeDophyNA, SchemeHuffman, SchemeLSQ, SchemeMINC, SchemeRaw}
	if got := names(NewSession(sc).RunEpoch()); !reflect.DeepEqual(got, want) {
		t.Fatalf("Session schemes = %v, want %v", got, want)
	}
	sp := DefaultShardSpec(1)
	sp.FullSchemes = true
	full := NewShardedSession(sc, sp)
	defer full.Close()
	if got := names(full.RunEpoch()); !reflect.DeepEqual(got, want) {
		t.Fatalf("full ShardedSession schemes = %v, want %v", got, want)
	}
	lean := NewShardedSession(sc, DefaultShardSpec(1))
	defer lean.Close()
	if got := names(lean.RunEpoch()); !reflect.DeepEqual(got, []string{SchemeDophy}) {
		t.Fatalf("Dophy-only ShardedSession schemes = %v, want [%s]", got, SchemeDophy)
	}
}
