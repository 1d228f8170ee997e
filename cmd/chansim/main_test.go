package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
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
// scenario reports the same outcome — and the same stations warm — from
// the serial driver, from one shard and from seven shards on two
// workers. The mean acquisition time is left out: the drivers sum the
// same samples in a different order.
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
			for _, label := range []string{"offered calls", "blocking", "handoff drops", "messages/call", "path mix", "warm stations"} {
				if strings.HasPrefix(line, label) {
					kept = append(kept, line)
				}
			}
		}
		if len(kept) != 6 {
			t.Fatalf("chansim %v: want 6 outcome lines, got %q from\n%s", extra, kept, stdout)
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
	if want := "chansim: -journal needs one shard (-shards 1, or no -shards), got -shards 4: records from shards running concurrently would interleave by schedule\n"; code != 1 || stderr != want {
		t.Errorf("exit %d, stderr %q; want exit 1, stderr %q", code, stderr, want)
	}
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Errorf("the refused run left a journal file behind (stat error: %v)", err)
	}
}

// TestOneShardJournalMatchesSerial: -journal works with -shards 1, and
// an 8x8 borrowing scenario's journal is then the serial one record for
// record — byte for byte once the request ids, which the two kernels'
// constructors number differently, are dropped. -metrics works at any
// shard count.
func TestOneShardJournalMatchesSerial(t *testing.T) {
	scenario := []string{"-width", "8", "-erlang", "9", "-duration", "4000", "-warmup", "800", "-seed", "3"}
	req := regexp.MustCompile(`"req":\d+,?`)
	journal := func(extra ...string) []string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "run.jsonl")
		if code, _, stderr := chansim(append(append(scenario, "-journal", path), extra...)...); code != 0 {
			t.Fatalf("chansim %v -journal: exit %d, stderr %q", extra, code, stderr)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Split(req.ReplaceAllString(string(raw), ""), "\n")
	}
	serial, one := journal(), journal("-shards", "1")
	borrows := 0
	for _, line := range serial {
		if strings.Contains(line, `"type":"borrow"`) {
			borrows++
		}
	}
	if len(serial) < 1000 || borrows == 0 {
		t.Fatalf("the serial journal has %d records, %d of them borrows: the scenario is vacuous", len(serial), borrows)
	}
	if len(one) != len(serial) {
		t.Fatalf("-shards 1 journals %d records, the serial kernel %d", len(one), len(serial))
	}
	for i := range serial {
		if one[i] != serial[i] {
			t.Fatalf("record %d: -shards 1 journals %s, the serial kernel %s", i, one[i], serial[i])
		}
	}

	code, stdout, stderr := chansim(append(scenario, "-shards", "4", "-workers", "2", "-metrics", "127.0.0.1:0")...)
	if code != 0 || !strings.Contains(stdout, "metrics           http://127.0.0.1:") || !strings.Contains(stdout, "invariant         ok") {
		t.Errorf("-shards 4 -metrics: exit %d, stderr %q, stdout\n%s", code, stderr, stdout)
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

// TestFlagsOverrideConfig: a flag set on the command line overrides the
// -config file exactly as writing its value into the file would, so
// -seed 7 changes the outcome, to that of the file with "seed": 7.
// -erlang likewise changes the offered load of a hot-spot file.
func TestFlagsOverrideConfig(t *testing.T) {
	report := func(args ...string) map[string]string {
		t.Helper()
		code, stdout, stderr := chansim(args...)
		if code != 0 {
			t.Fatalf("chansim %v: exit %d, stderr %q", args, code, stderr)
		}
		lines := map[string]string{}
		for _, line := range strings.Split(stdout, "\n") {
			for _, label := range []string{"offered calls", "blocking", "handoff drops", "messages/call", "path mix", "warm stations"} {
				if strings.HasPrefix(line, label) {
					lines[label] = line
				}
			}
		}
		if lines["offered calls"] == "" {
			t.Fatalf("chansim %v: no outcome in\n%s", args, stdout)
		}
		return lines
	}
	mobility := filepath.Join("..", "..", "scenarios", "mobility.json")
	raw, err := os.ReadFile(mobility)
	if err != nil {
		t.Fatal(err)
	}
	seeded := filepath.Join(t.TempDir(), "mobility-seed7.json")
	if edited := strings.Replace(string(raw), `"seed": 3,`, `"seed": 7,`, 1); edited == string(raw) {
		t.Fatal(`mobility.json no longer has "seed": 3`)
	} else if err := os.WriteFile(seeded, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	file, flag, edited := report("-config", mobility), report("-config", mobility, "-seed", "7"), report("-config", seeded)
	if len(file) != 6 || reflect.DeepEqual(flag, file) {
		t.Errorf("-seed 7 did not change the outcome of mobility.json:\n%q", file)
	}
	if !reflect.DeepEqual(flag, edited) {
		t.Errorf("-config mobility.json -seed 7 reports\n%q\nthe file with \"seed\": 7 reports\n%q", flag, edited)
	}

	hotspot := filepath.Join("..", "..", "scenarios", "hotspot.json")
	if def, two := report("-config", hotspot)["offered calls"], report("-config", hotspot, "-erlang", "2")["offered calls"]; def == two {
		t.Errorf("-erlang 2 did not change hotspot.json's offered calls: %q", def)
	}
}
