package main

import (
	"bytes"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"dophy/internal/lint"
)

// TestFilterToFiles pins the -diff narrowing contract: a diagnostic
// survives exactly when its file, made root-relative and slash-separated,
// is in the changed set; anything outside the root is dropped.
func TestFilterToFiles(t *testing.T) {
	root := t.TempDir()
	mk := func(rel string, line int) lint.Diagnostic {
		return lint.Diagnostic{
			Pos:  token.Position{Filename: filepath.Join(root, filepath.FromSlash(rel)), Line: line},
			Rule: "determflow",
			Msg:  rel,
		}
	}
	diags := []lint.Diagnostic{
		mk("internal/a/a.go", 1),
		mk("internal/b/b.go", 2),
		mk("internal/a/a.go", 3),
		{Pos: token.Position{Filename: filepath.Join(t.TempDir(), "c.go"), Line: 4}, Rule: "hotpathalloc", Msg: "outside root"},
	}
	got := filterToFiles(diags, root, map[string]bool{"internal/a/a.go": true})
	if len(got) != 2 {
		t.Fatalf("filterToFiles kept %d diagnostics, want 2: %v", len(got), got)
	}
	for _, d := range got {
		if d.Msg != "internal/a/a.go" {
			t.Errorf("kept diagnostic from %s, want only internal/a/a.go", d.Msg)
		}
	}
}

// TestFilterToFilesEmptySet pins the no-changes case: a clean diff keeps
// nothing, so `-diff` against an identical ref exits 0 even on a tree with
// violations elsewhere.
func TestFilterToFilesEmptySet(t *testing.T) {
	root := t.TempDir()
	diags := []lint.Diagnostic{
		{Pos: token.Position{Filename: filepath.Join(root, "a.go"), Line: 1}, Rule: "determflow"},
	}
	if got := filterToFiles(diags, root, map[string]bool{}); len(got) != 0 {
		t.Fatalf("empty changed set kept %d diagnostics, want 0", len(got))
	}
}

// TestChangedFiles exercises the git plumbing against a scratch
// repository: a committed-then-modified file and an untracked file are
// both in the set; an unchanged file is not.
func TestChangedFiles(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not available")
	}
	root := t.TempDir()
	git := func(args ...string) {
		t.Helper()
		cmd := exec.Command("git", append([]string{
			"-C", root,
			"-c", "user.name=test",
			"-c", "user.email=test@example.invalid",
		}, args...)...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, stderr.String())
		}
	}
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	git("init", "-q")
	write("steady.go", "package a\n")
	write("pkg/edited.go", "package pkg\n")
	git("add", ".")
	git("commit", "-q", "-m", "seed")
	write("pkg/edited.go", "package pkg\n\nconst V = 1\n")
	write("pkg/fresh.go", "package pkg\n\nconst W = 2\n")

	files, err := changedFiles(root, "HEAD")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pkg/edited.go", "pkg/fresh.go"} {
		if !files[want] {
			t.Errorf("changedFiles missing %s; got %v", want, files)
		}
	}
	if files["steady.go"] {
		t.Errorf("changedFiles includes unchanged steady.go: %v", files)
	}

	if _, err := changedFiles(root, "no-such-ref"); err == nil {
		t.Error("changedFiles accepted a bogus ref; want the git error surfaced")
	}
}
