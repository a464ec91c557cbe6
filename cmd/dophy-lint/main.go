// Command dophy-lint statically enforces the repo's determinism and
// ownership invariants (see DESIGN.md, "Determinism & invariants" and
// "Static allocation discipline & determinism taint").
//
// Usage:
//
//	go run ./cmd/dophy-lint ./...
//
// It loads every package in the module twice — once with the default tag
// set and once with the dophy_invariants tag, so both variants of the
// build-gated files are linted — and exits nonzero if any rule fires.
// Regular diagnostics are unioned across the passes; stale-waiver
// diagnostics are intersected (a pragma is only stale if it suppresses
// nothing under *every* tag set). Individual sites can be waived with a
// justified pragma:
//
//	//dophy:allow <rule> -- <why this site is legitimately exempt>
//
// Output modes: the default is file:line:col text; -json emits a JSON
// array of diagnostics; -github emits GitHub Actions workflow annotations
// (::error file=...) so violations surface inline on pull requests.
// -hotpaths prints the //dophy:hotpath inventory instead of linting;
// -write-inventory regenerates the committed hotpath-inventory.txt from the
// same data, so CI can fail when the golden drifts from the annotations.
// -rule <name,...> restricts reporting to the named rules (the full
// catalogue still runs, so waiver bookkeeping is unchanged; pragma-hygiene
// diagnostics appear only on unfiltered runs). Unknown names exit 2.
// -diff <git-ref> keeps the whole-module analysis (cross-package rules need
// it) but reports only diagnostics in files changed relative to the ref,
// plus untracked files — the pre-push subset of a full run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dophy/internal/lint"
)

// tagSets are the build-tag combinations every pass runs under.
var tagSets = [][]string{nil, {"dophy_invariants"}}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind a testable seam: flags in, exit code
// out, all output on the two writers. Exit codes: 0 clean, 1 violations,
// 2 usage or load errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dophy-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	verbose := fs.Bool("v", false, "also print type-checker errors (analysis is best-effort despite them)")
	root := fs.String("root", "", "module root to lint (default: walk up from cwd to go.mod)")
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	github := fs.Bool("github", false, "emit GitHub Actions ::error annotations alongside the text output")
	hotpaths := fs.Bool("hotpaths", false, "print the //dophy:hotpath function inventory and exit")
	writeInventory := fs.Bool("write-inventory", false, "rewrite hotpath-inventory.txt at the module root and exit")
	ruleSpec := fs.String("rule", "", "comma-separated rule names to run (default: all rules)")
	diffRef := fs.String("diff", "", "report only diagnostics in files changed relative to this git ref (plus untracked files)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	ruleFilter, err := selectRules(*ruleSpec)
	if err != nil {
		fmt.Fprintln(stderr, "dophy-lint:", err)
		return 2
	}

	dir := *root
	if dir == "" {
		var err error
		dir, err = findModuleRoot()
		if err != nil {
			fmt.Fprintln(stderr, "dophy-lint:", err)
			return 2
		}
	}
	// Non-flag args are accepted for familiarity (./...) but the engine
	// always lints the whole module; anything narrower would miss
	// cross-package rules like poolescape.
	for _, arg := range fs.Args() {
		if arg != "./..." && arg != "." {
			fmt.Fprintf(stderr, "dophy-lint: ignoring %q (whole-module analysis only)\n", arg)
		}
	}

	var changed map[string]bool
	if *diffRef != "" {
		changed, err = changedFiles(dir, *diffRef)
		if err != nil {
			fmt.Fprintln(stderr, "dophy-lint:", err)
			return 2
		}
	}

	if *hotpaths {
		lines, err := inventoryLines(dir)
		if err != nil {
			fmt.Fprintln(stderr, "dophy-lint:", err)
			return 2
		}
		for _, line := range lines {
			fmt.Fprintln(stdout, line)
		}
		return 0
	}
	if *writeInventory {
		path := filepath.Join(dir, "hotpath-inventory.txt")
		lines, err := inventoryLines(dir)
		if err != nil {
			fmt.Fprintln(stderr, "dophy-lint:", err)
			return 2
		}
		var buf strings.Builder
		for _, line := range lines {
			buf.WriteString(line)
			buf.WriteByte('\n')
		}
		if err := os.WriteFile(path, []byte(buf.String()), 0o644); err != nil {
			fmt.Fprintln(stderr, "dophy-lint:", err)
			return 2
		}
		return 0
	}

	seen := map[string]bool{}
	var diags []lint.Diagnostic
	// stale waivers must be unused under every tag set before they are
	// reported: a pragma can legitimately suppress a diagnostic that only
	// exists in the dophy_invariants build (or only in the default one).
	// staleCandidates starts as the first pass's stale list and is filtered
	// down to the intersection by each later pass.
	var staleCandidates []lint.Diagnostic
	for pass, tags := range tagSets {
		mod, err := lint.Load(dir, lint.LoadConfig{Tags: tags})
		if err != nil {
			fmt.Fprintln(stderr, "dophy-lint:", err)
			return 2
		}
		if *verbose {
			for _, pkg := range mod.Packages {
				for _, terr := range pkg.TypeErrors {
					fmt.Fprintf(stderr, "dophy-lint: typecheck [%s]: %v\n", strings.Join(tags, ","), terr)
				}
			}
		}
		regular, stale := mod.RunDetail(lint.AllRules())
		for _, d := range regular {
			if key := d.String(); !seen[key] {
				seen[key] = true
				diags = append(diags, d)
			}
		}
		if pass == 0 {
			staleCandidates = stale
			continue
		}
		inPass := map[string]bool{}
		for _, d := range stale {
			inPass[d.String()] = true
		}
		kept := staleCandidates[:0]
		for _, d := range staleCandidates {
			if inPass[d.String()] {
				kept = append(kept, d)
			}
		}
		staleCandidates = kept
	}
	for _, d := range staleCandidates {
		if key := d.String(); !seen[key] {
			seen[key] = true
			diags = append(diags, d)
		}
	}
	if ruleFilter != nil {
		kept := diags[:0]
		for _, d := range diags {
			if ruleFilter[d.Rule] {
				kept = append(kept, d)
			}
		}
		diags = kept
	}
	if changed != nil {
		diags = filterToFiles(diags, dir, changed)
	}
	lint.SortDiagnostics(diags)

	switch {
	case *jsonOut:
		if err := emitJSON(stdout, diags); err != nil {
			fmt.Fprintln(stderr, "dophy-lint:", err)
			return 2
		}
	default:
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
	}
	if *github {
		for _, d := range diags {
			emitGitHub(stdout, dir, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "dophy-lint: %d violation(s)\n", len(diags))
		return 1
	}
	return 0
}

// selectRules parses the -rule flag: a comma-separated list of rule names
// to report. An empty spec means no filtering (nil map). The engine always
// runs the full catalogue so waiver bookkeeping stays consistent; the
// filter only restricts which diagnostics are reported, and pragma-hygiene
// diagnostics (malformed or stale waivers) appear only on unfiltered runs.
func selectRules(spec string) (map[string]bool, error) {
	if spec == "" {
		return nil, nil
	}
	known := map[string]bool{}
	for _, r := range lint.AllRules() {
		known[r.Name()] = true
	}
	filter := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !known[name] {
			names := make([]string, 0, len(known))
			for n := range known {
				names = append(names, n)
			}
			sort.Strings(names)
			return nil, fmt.Errorf("unknown rule %q; known rules: %s", name, strings.Join(names, ", "))
		}
		filter[name] = true
	}
	if len(filter) == 0 {
		return nil, fmt.Errorf("-rule %q names no rules", spec)
	}
	return filter, nil
}

// jsonDiag is the stable JSON shape of one diagnostic.
type jsonDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// emitJSON writes the diagnostics as an indented JSON array. The shape is
// locked by the golden in testdata/json.golden: CI consumers parse it, so
// field renames are breaking changes.
func emitJSON(w io.Writer, diags []lint.Diagnostic) error {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			File:    d.Pos.Filename,
			Line:    d.Pos.Line,
			Column:  d.Pos.Column,
			Rule:    d.Rule,
			Message: d.Msg,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// emitGitHub prints one GitHub Actions workflow annotation. File paths are
// made repo-relative so the annotation attaches to the diff view.
func emitGitHub(w io.Writer, root string, d lint.Diagnostic) {
	file := d.Pos.Filename
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	// Messages must have %, CR and LF escaped per the workflow-command spec.
	msg := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A").Replace(
		fmt.Sprintf("%s: %s", d.Rule, d.Msg))
	fmt.Fprintf(w, "::error file=%s,line=%d,col=%d::%s\n", file, d.Pos.Line, d.Pos.Column, msg)
}

// inventoryLines returns the union of the //dophy:hotpath inventory over
// every tag set, one entry per line, sorted: the source of the committed
// hotpath-inventory.txt golden (-hotpaths prints it, -write-inventory
// rewrites the file).
func inventoryLines(dir string) ([]string, error) {
	seen := map[string]bool{}
	var all []string
	for _, tags := range tagSets {
		mod, err := lint.Load(dir, lint.LoadConfig{Tags: tags})
		if err != nil {
			return nil, err
		}
		for _, line := range lint.Inventory(mod) {
			if !seen[line] {
				seen[line] = true
				all = append(all, line)
			}
		}
	}
	// The inventory is sorted per pass; the union of two sorted lists needs
	// one more sort to interleave tag-gated entries correctly.
	sort.Strings(all)
	return all, nil
}

// findModuleRoot walks up from the working directory to the enclosing go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
