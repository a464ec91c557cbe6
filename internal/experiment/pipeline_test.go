package experiment

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
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
		res.MeanDeliveryRatio += eo.Truth.DeliveryRatio() / float64(sc.Epochs)
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
		sc.Schemes = Codecs | Baselines
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
// engine: RunSharded with every scheme named equals stepping a
// ShardedSession through RunEpoch, unsharded and 2-way sharded.
func TestRunShardedMatchesRunEpoch(t *testing.T) {
	sc := smallScenario(29)
	sc.Epochs = 3
	sc.Schemes = Codecs | Baselines
	for _, k := range []int{1, 2} {
		sp := DefaultShardSpec(k)
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

// TestSchemeSetsMatchAcrossEngines ties both engines' scheme banks to
// Scenario.Schemes: Session and a one-shard ShardedSession each harvest
// dophy plus exactly the schemes of the selected groups, for every set of
// groups, and carry per-packet samples exactly when Codecs is selected.
func TestSchemeSetsMatchAcrossEngines(t *testing.T) {
	names := func(eo *EpochOutcome) []string {
		var out []string
		for name := range eo.Schemes {
			out = append(out, name)
		}
		sort.Strings(out)
		return out
	}
	// check holds one engine's epoch to the group: exactly the wanted
	// schemes, and per-packet samples (F1's input) only under Codecs.
	check := func(t *testing.T, engine string, eo *EpochOutcome, want []string, samples bool) {
		t.Helper()
		if got := names(eo); !reflect.DeepEqual(got, want) {
			t.Errorf("%s schemes = %v, want %v", engine, got, want)
		}
		if got := len(eo.PerPacket) > 0; got != samples {
			t.Errorf("%s has %d per-packet samples, want samples: %v", engine, len(eo.PerPacket), samples)
		}
	}
	for _, tc := range []struct {
		name    string
		schemes SchemeSet
		want    []string
		samples bool
	}{
		{"empty", 0, []string{SchemeDophy}, false},
		{"codecs", Codecs, []string{SchemeCompact, SchemeDophy, SchemeDophyNA, SchemeHuffman, SchemeRaw}, true},
		{"baselines", Baselines, []string{SchemeDophy, SchemeLSQ, SchemeMINC}, false},
		{"all", Codecs | Baselines, []string{SchemeCompact, SchemeDophy, SchemeDophyNA, SchemeHuffman, SchemeLSQ, SchemeMINC, SchemeRaw}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := smallScenario(31)
			sc.Schemes = tc.schemes
			check(t, "Session", NewSession(sc).RunEpoch(), tc.want, tc.samples)
			ss := NewShardedSession(sc, DefaultShardSpec(1))
			defer ss.Close()
			check(t, "ShardedSession", ss.RunEpoch(), tc.want, tc.samples)
		})
	}
}

// expectPanicNaming runs fn and fails unless it panics with a message that
// contains name.
func expectPanicNaming(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one naming %q", name)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, strconv.Quote(name)) {
			t.Fatalf("panic %q does not name %q", msg, name)
		}
	}()
	fn()
}

// TestReadingUnbuiltSchemePanics: a run that did not build a scheme has no
// output for it, and the RunResult accessors must say so instead of
// reporting NaN or zero as if the scheme had estimated nothing.
func TestReadingUnbuiltSchemePanics(t *testing.T) {
	res := Run(smallScenario(37))
	expectPanicNaming(t, SchemeMINC, func() { res.MeanAccuracy(SchemeMINC) })
	expectPanicNaming(t, SchemeRaw, func() { res.MeanBitsPerPacket(SchemeRaw) })
	expectPanicNaming(t, SchemeHuffman, func() { res.TotalBitsPerPacket(SchemeHuffman) })
	expectPanicNaming(t, SchemeDophyNA, func() { res.DecodeErrorTotal(SchemeDophyNA) })
}
