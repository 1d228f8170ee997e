package main

import (
	"bytes"
	"strings"
	"testing"
)

// chantab runs the command in-process and returns its exit code and
// what it wrote to stdout and stderr.
func chantab(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestOneArtifactSmoke: -only renders the one artifact it names — Table
// 2's row per baseline on stdout, progress on stderr — and a name that
// matches nothing is a usage error listing the valid ones, not an empty
// report with exit 0.
func TestOneArtifactSmoke(t *testing.T) {
	code, stdout, stderr := chantab("-quick", "-only", "table2")
	if code != 0 || stderr != "running table2...\n" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.HasPrefix(stdout, "Table 2") || strings.Contains(stdout, "Table 1") {
		t.Errorf("stdout is not Table 2 alone:\n%s", stdout)
	}
	for _, scheme := range []string{"adaptive", "basic-search", "basic-update", "advanced-update"} {
		if !strings.Contains(stdout, "\n"+scheme+" ") {
			t.Errorf("no %s row in\n%s", scheme, stdout)
		}
	}

	code, stdout, stderr = chantab("-quick", "-only", "table9")
	if code != 2 || stdout != "" || !strings.Contains(stderr, `-only "table9" names no artifact`) || !strings.Contains(stderr, "table1, table2, table3, f1,") {
		t.Errorf("unknown artifact: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	if code, _, stderr := chantab("-bogus"); code != 2 || !strings.Contains(stderr, "flag provided but not defined") {
		t.Errorf("unknown flag: exit %d, stderr %q", code, stderr)
	}
}
