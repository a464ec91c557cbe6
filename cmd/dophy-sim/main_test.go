package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
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

// TestTextLinksTableOrder: the -links table lists every estimated link of
// the final epoch once, in ascending (From, To) order. Report.Estimates is
// a map, so the order exists only because runText sorts the keys.
func TestTextLinksTableOrder(t *testing.T) {
	sim, err := dophy.NewSimulation(dophy.Options{GridSide: 4, EpochSeconds: 200})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	runText(&buf, sim, 1, true, false)
	_, table, ok := strings.Cut(buf.String(), "per-link estimates (final epoch):\n")
	if !ok {
		t.Fatalf("no per-link table in:\n%s", buf.String())
	}
	rows := strings.Split(strings.TrimSpace(table), "\n")[1:] // drop the header
	if len(rows) < 10 {
		t.Fatalf("only %d link rows:\n%s", len(rows), table)
	}
	var prev dophy.Link
	for i, row := range rows {
		var l dophy.Link
		if _, err := fmt.Sscanf(row, "%d->%d", &l.From, &l.To); err != nil {
			t.Fatalf("row %d %q: %v", i, row, err)
		}
		if i > 0 && (l.From < prev.From || l.From == prev.From && l.To <= prev.To) {
			t.Fatalf("row %d: link %v after %v; want ascending (From, To)", i, l, prev)
		}
		prev = l
	}
}

// TestRunRejectsRetxBelowOne: the library reads a zero MaxRetx,
// EpochSeconds, GenPeriodSeconds or UpdateEvery as "use the default", so
// -max-retx 0 used to run with 7 retransmissions unannounced, and a zero
// -epoch-seconds, -gen-period or -update-every ran the default. Each of
// them is a usage error naming its flag.
func TestRunRejectsRetxBelowOne(t *testing.T) {
	for _, tc := range []struct{ name, flag, value string }{
		{"0", "-max-retx", "0"},
		{"-1", "-max-retx", "-1"},
		{"-epoch-seconds 0", "-epoch-seconds", "0"},
		{"-epoch-seconds -1", "-epoch-seconds", "-1"},
		{"-gen-period 0", "-gen-period", "0"},
		{"-gen-period NaN", "-gen-period", "NaN"},
		{"-update-every 0", "-update-every", "0"},
		{"-update-every -1", "-update-every", "-1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run([]string{tc.flag, tc.value}, &stdout, &stderr); got != 2 {
				t.Fatalf("exit = %d, want 2 (stderr %q)", got, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.flag) {
				t.Errorf("stderr %q does not name %s", stderr.String(), tc.flag)
			}
			if stdout.Len() != 0 {
				t.Errorf("usage error wrote to stdout: %q", stdout.String())
			}
		})
	}
}

// TestRunAcceptsOneRetx: the smallest legal budget runs and reports.
func TestRunAcceptsOneRetx(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-max-retx", "1", "-grid", "3", "-epochs", "1", "-epoch-seconds", "60"}
	if got := run(args, &stdout, &stderr); got != 0 {
		t.Fatalf("exit = %d, want 0 (stderr %q)", got, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "topology: 9 nodes") {
		t.Errorf("stdout does not start with the topology line: %q", stdout.String())
	}
}
