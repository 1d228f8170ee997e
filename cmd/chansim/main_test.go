package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chansim runs the command in-process and returns its exit code and
// what it wrote to stdout and stderr.
func chansim(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestReportIdenticalAcrossDrivers pins, at the CLI, that a mobile
// scenario reports the same outcome from the serial driver, from one
// shard and from seven shards on two workers. The mean acquisition time
// is left out: the drivers sum the same samples in a different order.
func TestReportIdenticalAcrossDrivers(t *testing.T) {
	scenario := []string{"-width", "8", "-erlang", "9", "-handoff", "0.00067", "-duration", "4000", "-warmup", "800", "-seed", "3"}
	outcome := func(extra ...string) string {
		t.Helper()
		code, stdout, stderr := chansim(append(scenario, extra...)...)
		if code != 0 {
			t.Fatalf("chansim %v: exit %d, stderr %q", extra, code, stderr)
		}
		var kept []string
		for _, line := range strings.Split(stdout, "\n") {
			for _, label := range []string{"offered calls", "blocking", "handoff drops", "messages/call", "path mix"} {
				if strings.HasPrefix(line, label) {
					kept = append(kept, line)
				}
			}
		}
		if len(kept) != 5 {
			t.Fatalf("chansim %v: want 5 outcome lines, got %q from\n%s", extra, kept, stdout)
		}
		return strings.Join(kept, "\n")
	}
	serial := outcome()
	for _, sharded := range [][]string{{"-shards", "1"}, {"-shards", "7", "-workers", "2"}} {
		if got := outcome(sharded...); got != serial {
			t.Errorf("chansim %v reports\n%s\nserial reports\n%s", sharded, got, serial)
		}
	}
}

func TestShardsRefuseJournal(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	code, _, stderr := chansim("-shards", "4", "-journal", journal)
	if want := "chansim: -metrics/-journal need the serial driver (drop -shards)\n"; code != 1 || stderr != want {
		t.Errorf("exit %d, stderr %q; want exit 1, stderr %q", code, stderr, want)
	}
}

func TestBenchFlagIsGone(t *testing.T) {
	code, _, stderr := chansim("-bench")
	if code != 2 || !strings.Contains(stderr, "flag provided but not defined: -bench") {
		t.Errorf("exit %d, stderr %q; want exit 2 and an unknown-flag message", code, stderr)
	}
}

// TestProfilesOfRefusedAndFailedRuns: a run refused before it simulates
// leaves no profile or trace behind, one that fails afterwards leaves
// both finished and closed.
func TestProfilesOfRefusedAndFailedRuns(t *testing.T) {
	dir := t.TempDir()
	cpu, trace := filepath.Join(dir, "x.prof"), filepath.Join(dir, "x.trace")

	// -duration below the default -warmup: refused by the workload's
	// validation.
	if code, _, stderr := chansim("-duration", "100", "-cpuprofile", cpu, "-exectrace", trace); code != 1 || !strings.Contains(stderr, "Warmup") {
		t.Fatalf("refused run: exit %d, stderr %q", code, stderr)
	}
	for _, path := range []string{cpu, trace} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("refused run left %s behind (stat error: %v)", filepath.Base(path), err)
		}
	}

	// The heap profile cannot be created: the run fails after simulating.
	code, _, stderr := chansim("-duration", "2000", "-warmup", "400", "-cpuprofile", cpu, "-exectrace", trace,
		"-memprofile", filepath.Join(dir, "missing", "mem.prof"))
	if code != 1 || !strings.Contains(stderr, "-memprofile") {
		t.Fatalf("failed run: exit %d, stderr %q", code, stderr)
	}
	for _, path := range []string{cpu, trace} {
		if info, err := os.Stat(path); err != nil || info.Size() <= 16 {
			t.Errorf("failed run: %s is missing or unfinished (info %v, error %v)", filepath.Base(path), info, err)
		}
	}
}

// TestFaultBlockIsReportedIgnored: the DES has no loss model, so a
// scenario's fault block does not apply; chansim says so once on stderr
// and still runs the scenario.
func TestFaultBlockIsReportedIgnored(t *testing.T) {
	code, stdout, stderr := chansim("-config", filepath.Join("..", "..", "scenarios", "lossy.json"))
	if want := "chansim: fault block applies to the wall-clock runtime only; ignored\n"; code != 0 || stderr != want {
		t.Errorf("exit %d, stderr %q; want exit 0, stderr %q", code, stderr, want)
	}
	if !strings.Contains(stdout, "invariant         ok") {
		t.Errorf("the scenario did not run to its report:\n%s", stdout)
	}
}
