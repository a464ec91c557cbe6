package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRejectsBadCounts pins run's usage contract for the pool and shard
// sizes: a count no pool can have exits 2 with a message naming the flag,
// before any experiment runs, instead of falling back to a default.
func TestRunRejectsBadCounts(t *testing.T) {
	cases := []struct {
		args      []string
		errSubstr string
	}{
		{[]string{"-parallel", "0"}, "-parallel"},
		{[]string{"-parallel", "-2"}, "-parallel"},
		{[]string{"-workers", "-3"}, "-workers"},
		{[]string{"-shards", "0"}, "-shards"},
		{[]string{"-shards", "-1"}, "-shards"},
		{[]string{"-exp", "T99"}, `unknown experiment "T99"`},
		{[]string{"-nosuchflag"}, "-nosuchflag"},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != 2 {
				t.Fatalf("exit = %d, want 2 (stderr %q)", got, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.errSubstr) {
				t.Errorf("stderr %q lacks %q", stderr.String(), tc.errSubstr)
			}
			if stdout.Len() != 0 {
				t.Errorf("usage error wrote to stdout: %q", stdout.String())
			}
		})
	}
}

// TestRunAcceptsBoundaryCounts checks the smallest legal values still run:
// -workers 0 means NumCPU, and one experiment at one shard prints its table.
func TestRunAcceptsBoundaryCounts(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-exp", "T11", "-parallel", "1", "-workers", "0", "-shards", "1", "-csv"}
	if got := run(args, &stdout, &stderr); got != 0 {
		t.Fatalf("exit = %d, want 0 (stderr %q)", got, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "# T11: ") {
		t.Errorf("stdout does not start with T11's CSV header: %q", stdout.String())
	}
}
