package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// export writes a short trace of a side×side grid to a temporary file.
func export(t *testing.T, side string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.jsonl")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-export", path, "-grid", side, "-seconds", "60"}, &stdout, &stderr); code != 0 {
		t.Fatalf("export exited %d: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "exported") {
		t.Fatalf("export reported %q", stderr.String())
	}
	return path
}

// TestExportAnalyzeRoundTrip: a trace analysed against the topology that
// exported it replays every journey without a decode error.
func TestExportAnalyzeRoundTrip(t *testing.T) {
	path := export(t, "4")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-analyze", path, "-grid", "4"}, &stdout, &stderr); code != 0 {
		t.Fatalf("analyze exited %d: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "decode errors: 0\n") || !strings.Contains(out, "worst link:") {
		t.Fatalf("analyze output:\n%s", out)
	}
}

// TestAnalyzeRejectsMismatchedTopology: a trace analysed against another
// grid names the first record that does not fit and exits 1, in either
// direction: hops leaving a smaller topology, and hops that are not links
// of a larger one.
func TestAnalyzeRejectsMismatchedTopology(t *testing.T) {
	for _, c := range []struct{ exported, analyzed string }{{"5", "3"}, {"3", "5"}} {
		path := export(t, c.exported)
		var stdout, stderr bytes.Buffer
		code := run([]string{"-analyze", path, "-grid", c.analyzed}, &stdout, &stderr)
		if code != 1 {
			t.Fatalf("grid %s trace on grid %s: exit %d, want 1 (stderr %q)", c.exported, c.analyzed, code, stderr.String())
		}
		if msg := stderr.String(); !strings.Contains(msg, "record ") || !strings.Contains(msg, "does not fit") {
			t.Fatalf("grid %s trace on grid %s: error %q does not name the record", c.exported, c.analyzed, msg)
		}
	}
}

// TestAnalyzeRejectsBrokenPaths covers each rule a record must meet, on a
// one-record journal analysed against the default 7×7 grid.
func TestAnalyzeRejectsBrokenPaths(t *testing.T) {
	cases := map[string]struct{ record, want string }{
		"origin outside": {`{"origin":99,"seq":1,"delivered":false,"drop":"retries"}`, "origin 99"},
		"not a link":     {`{"origin":20,"seq":1,"delivered":true,"hops":[{"from":20,"to":0,"attempts":1,"observed":1}]}`, "not a link"},
		"broken chain":   {`{"origin":2,"seq":1,"delivered":true,"hops":[{"from":1,"to":0,"attempts":1,"observed":1}]}`, "does not continue"},
		"past budget":    {`{"origin":1,"seq":1,"delivered":true,"hops":[{"from":1,"to":0,"attempts":9,"observed":9}]}`, "attempt 9"},
		"short of sink":  {`{"origin":2,"seq":1,"delivered":true,"hops":[{"from":2,"to":1,"attempts":1,"observed":1}]}`, "not the sink"},
	}
	for name, c := range cases {
		path := filepath.Join(t.TempDir(), "t.jsonl")
		if err := os.WriteFile(path, []byte(c.record+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-analyze", path}, &stdout, &stderr); code != 1 {
			t.Errorf("%s: exit %d, want 1", name, code)
			continue
		}
		if msg := stderr.String(); !strings.Contains(msg, "record 1 ") || !strings.Contains(msg, c.want) {
			t.Errorf("%s: error %q, want record 1 and %q", name, msg, c.want)
		}
	}
}
