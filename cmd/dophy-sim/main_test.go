package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"dophy"
)

// TestJSONOmitsValuesAnEmptyEpochLacks: an epoch too short to generate a
// packet has no delivery ratio and nothing to score, so the JSON must say
// so by leaving those keys out instead of printing 1 and -1.
func TestJSONOmitsValuesAnEmptyEpochLacks(t *testing.T) {
	sim, err := dophy.NewSimulation(dophy.Options{GridSide: 3, EpochSeconds: 0.001, CompareBaselines: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runJSON(&buf, sim, 2, false); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		lines++
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		for _, key := range []string{"mae", "delivery_ratio", "baseline_mae"} {
			if v, ok := m[key]; ok {
				t.Errorf("line %d: empty epoch reports %s = %v", lines, key, v)
			}
		}
		if g, ok := m["generated"].(float64); !ok || g != 0 {
			t.Errorf("line %d: generated = %v, want 0", lines, m["generated"])
		}
	}
	if lines != 2 {
		t.Fatalf("%d JSON lines, want 2", lines)
	}
}

// TestJSONReportsRealEpoch: a normal epoch keeps every field.
func TestJSONReportsRealEpoch(t *testing.T) {
	sim, err := dophy.NewSimulation(dophy.Options{GridSide: 4, EpochSeconds: 200, CompareBaselines: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runJSON(&buf, sim, 1, false); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"mae", "delivery_ratio", "baseline_mae", "generated"} {
		if _, ok := m[key]; !ok {
			t.Errorf("real epoch lacks %s: %s", key, buf.String())
		}
	}
	if g := m["generated"].(float64); g <= 0 {
		t.Errorf("generated = %v", g)
	}
}
