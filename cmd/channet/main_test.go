package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestLossyClusterSmoke runs a small cluster over lossy loopback links
// in-process: every call ends, every node settles, and neither the
// nodes' own checkers nor the sweep find interference.
func TestLossyClusterSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-nodes", "3", "-calls", "12", "-drop", "0.02"}, &stdout, &stderr)
	if code != 0 || !strings.Contains(stdout.String(), "no co-channel interference") {
		t.Fatalf("exit %d, stderr %q, stdout:\n%s", code, stderr.String(), stdout.String())
	}
}
