package main

import (
	"bytes"
	"flag"
	"go/token"
	"os"
	"path/filepath"
	"testing"

	"dophy/internal/lint"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata goldens instead of comparing")

// goldenDiags is a fixed slice exercising every jsonDiag field, including
// the empty-message and column-zero edges the encoder must not drop.
func goldenDiags() []lint.Diagnostic {
	return []lint.Diagnostic{
		{
			Pos:  token.Position{Filename: "internal/experiment/pipeline.go", Line: 68, Column: 2},
			Rule: "poolescape",
			Msg:  "struct field retains pooled collect.PacketJourney: pooled objects are recycled by their owning package and must not outlive the handler that releases them",
		},
		{
			Pos:  token.Position{Filename: "internal/tomo/lsq/lsq.go", Line: 150, Column: 3},
			Rule: "densebound",
			Msg:  "struct field keyed by topo.Link: per-link state in internal/tomo/lsq is dense, indexed by topo.LinkTable",
		},
		{
			Pos:  token.Position{Filename: "internal/topo/table.go", Line: 7},
			Rule: "hotpathalloc",
			Msg:  `message with "quotes" & <angle brackets> survives encoding`,
		},
		{
			Pos:  token.Position{Filename: "internal/collect/collect.go", Line: 118, Column: 9},
			Rule: "hotpathalloc",
			Msg:  "make allocates per call [hot path: internal/collect.(*Network).transmit]",
		},
		{
			Pos:  token.Position{Filename: "internal/sim/radio.go", Line: 41, Column: 9},
			Rule: "determflow",
			Msg:  "use of math/rand.Intn: all randomness must come from dophy/internal/rng (seeded, splittable)",
		},
		{
			Pos:  token.Position{Filename: "internal/experiment/experiments.go", Line: 533, Column: 1},
			Rule: "pragma",
			Msg:  "stale waiver: //dophy:allow hotpathalloc suppresses nothing here; delete it",
		},
	}
}

// TestEmitJSONGolden locks the -json output schema byte-for-byte. CI
// tooling parses this array, so any drift (field names, indentation,
// HTML escaping) must be a deliberate, reviewed change: run
// `go test ./cmd/dophy-lint -run Golden -update` and commit the diff.
func TestEmitJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := emitJSON(&buf, goldenDiags()); err != nil {
		t.Fatalf("emitJSON: %v", err)
	}

	golden := filepath.Join("testdata", "json.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create it): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("-json output drifted from %s\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
}

// TestSelectRules pins the -rule flag contract: empty spec means no
// filtering, known names build the filter set, and an unknown name is the
// error that makes main exit 2.
func TestSelectRules(t *testing.T) {
	if f, err := selectRules(""); err != nil || f != nil {
		t.Fatalf("selectRules(\"\") = %v, %v; want nil, nil", f, err)
	}
	f, err := selectRules("determflow, densebound")
	if err != nil {
		t.Fatalf("selectRules known rules: %v", err)
	}
	if len(f) != 2 || !f["determflow"] || !f["densebound"] {
		t.Fatalf("selectRules filter = %v, want determflow+densebound", f)
	}
	// lifecycle is a retired rule: it must be as unknown as a made-up name.
	for _, name := range []string{"nosuchrule", "lifecycle"} {
		if _, err := selectRules("densebound," + name); err == nil {
			t.Fatalf("selectRules accepted unknown rule %s", name)
		} else if want := `unknown rule "` + name + `"`; !bytes.Contains([]byte(err.Error()), []byte(want)) {
			t.Fatalf("selectRules error %q, want substring %q", err, want)
		}
	}
	if _, err := selectRules(" , ,"); err == nil {
		t.Fatal("selectRules accepted a spec naming no rules")
	}
}

// TestRunExitCodes pins the run() seam's exit contract: 2 for usage and
// load errors (the paths main used to os.Exit from), 1 for violations,
// 0 for inventory modes, which return before linting.
func TestRunExitCodes(t *testing.T) {
	fixture := filepath.Join("..", "..", "internal", "lint", "testdata", "src")
	cases := []struct {
		name      string
		args      []string
		want      int
		errSubstr string
	}{
		{
			name:      "root without go.mod",
			args:      []string{"-root", t.TempDir()},
			want:      2,
			errSubstr: "dophy-lint:",
		},
		{
			name:      "unknown rule",
			args:      []string{"-root", fixture, "-rule", "nosuchrule"},
			want:      2,
			errSubstr: `unknown rule "nosuchrule"`,
		},
		{
			name: "unknown flag",
			args: []string{"-nosuchflag"},
			want: 2,
		},
		{
			name:      "bogus diff ref",
			args:      []string{"-root", t.TempDir(), "-diff", "no-such-ref"},
			want:      2,
			errSubstr: "dophy-lint:",
		},
		{
			name:      "violations in the fixture module",
			args:      []string{"-root", fixture},
			want:      1,
			errSubstr: "violation(s)",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Fatalf("run(%v) = %d, want %d\nstderr: %s", tc.args, got, tc.want, stderr.String())
			}
			if tc.errSubstr != "" && !bytes.Contains(stderr.Bytes(), []byte(tc.errSubstr)) {
				t.Errorf("stderr %q missing %q", stderr.String(), tc.errSubstr)
			}
		})
	}
}

// TestEmitJSONEmpty pins the no-violations case to a JSON array, not
// null: consumers index into the result without a nil check.
func TestEmitJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := emitJSON(&buf, nil); err != nil {
		t.Fatalf("emitJSON: %v", err)
	}
	if got := buf.String(); got != "[]\n" {
		t.Errorf("empty diagnostics encode as %q, want %q", got, "[]\n")
	}
}
