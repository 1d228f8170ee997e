package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestDemoSmoke runs the shortest demo in-process: two frames of the
// moving hot spot on the in-process runtime, a clean settle, and the
// committed-outcome checker silent throughout.
func TestDemoSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-seconds", "1", "-fps", "2"}, &stdout, &stderr)
	if code != 0 || !strings.HasSuffix(stdout.String(), "done: no co-channel interference observed\n") {
		t.Fatalf("exit %d, stderr %q, stdout:\n%s", code, stderr.String(), stdout.String())
	}
}
