package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary act as the child process the harness
// re-executes: spawn marks children through the environment.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// runnable lists the workloads this host can run: the sharded ones
// refuse a single-processor host.
func runnable() []workload {
	var out []workload
	for _, w := range workloads {
		if w.kind != kindSharded || runtime.GOMAXPROCS(0) >= 2 {
			out = append(out, w)
		}
	}
	return out
}

func invoke(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestToyReport runs every workload end to end at its toy size — warm-up
// child, repetitions, traced run, variants, layer pass, reconciliation —
// and checks the report carries every metric under a well-formed name.
func TestToyReport(t *testing.T) {
	dir := t.TempDir()
	var rep report
	for _, w := range runnable() {
		code, _, stderr := invoke(t, "-toy", "-workload", w.name, "-out", dir)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", w.name, code, stderr)
		}
		data, err := os.ReadFile(filepath.Join(dir, "report.json"))
		if err != nil {
			t.Fatal(err)
		}
		var one report
		if err := json.Unmarshal(data, &one); err != nil {
			t.Fatal(err)
		}
		if len(one.Workloads) != 1 {
			t.Fatalf("%s: %d workload sections", w.name, len(one.Workloads))
		}
		rep.Workloads = append(rep.Workloads, one.Workloads[0])
		rep.Layers, rep.Host = one.Layers, one.Host
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: traced run wrote no span file: %v", w.name, err)
		}
	}
	if rep.Host.NumCPU == 0 || rep.Host.GOMAXPROCS == 0 || rep.Host.GoVersion == "" || rep.Host.GitCommit == "" {
		t.Errorf("host section incomplete: %+v", rep.Host)
	}
	for _, d := range layerDefs {
		if !d.perWorkload {
			if _, ok := rep.Layers[d.name]; !ok {
				t.Errorf("layer pass did not report %s", d.name)
			}
		}
	}
	for _, wr := range rep.Workloads {
		w, err := findWorkload(wr.Name)
		if err != nil {
			t.Fatal(err)
		}
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %s", wr.Name, wr.Failed, wr.Attempted, wr.Error)
		}
		if (wr.Hash == "") != (w.kind == kindTCP) {
			t.Errorf("%s: trajectory hash %q", wr.Name, wr.Hash)
		}
		for _, d := range e2eDefs {
			s, ok := wr.EndToEnd[d.name]
			if ok != d.applies(w) {
				t.Errorf("%s: end-to-end metric %s present=%v, want %v", wr.Name, d.name, ok, d.applies(w))
			}
			if ok && (s.N != w.reps || s.Median <= 0 || s.Unit != d.unit) {
				t.Errorf("%s %s: %+v", wr.Name, d.name, s)
			}
		}
		if _, ok := wr.EndToEnd[failedFrac]; !ok {
			t.Errorf("%s: no %s", wr.Name, failedFrac)
		}
		for name := range wr.PerLayer {
			if !nameRE.MatchString(name + "." + wr.Name) {
				t.Errorf("malformed per-layer name %q", name+"."+wr.Name)
			}
		}
		if _, ok := wr.PerLayer["trace_overhead_frac"]; !ok {
			t.Errorf("%s: no trace_overhead_frac", wr.Name)
		}
		if w.kind != kindTCP {
			if _, ok := wr.PerLayer["layers.accounted_frac"]; !ok || wr.Reconcile == nil {
				t.Errorf("%s: no reconciliation", wr.Name)
			}
			if wr.PerLayer["sim.events"].Value <= 0 {
				t.Errorf("%s: sim.events = %v", wr.Name, wr.PerLayer["sim.events"].Value)
			}
		}
		if _, ok := wr.PerLayer["sim.shards.speedup_w2"]; ok != (w.kind == kindSharded) {
			t.Errorf("%s: sim.shards.speedup_w2 present=%v", wr.Name, ok)
		}
		if len(wr.Spans) == 0 {
			t.Errorf("%s: traced run folded no spans", wr.Name)
		}
	}
}

// TestShardedNeedsTwoProcs: a one-processor host gets a descriptive
// refusal, not a time-sliced "parallel" measurement.
func TestShardedNeedsTwoProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	code, _, stderr := invoke(t, "-toy", "-workload", "steady-sharded", "-out", t.TempDir())
	if code == 0 || !strings.Contains(stderr, "GOMAXPROCS >= 2") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []listedMetric `json:"end_to_end"`
	PerLayer   []listedMetric `json:"per_layer"`
}

// listedMetric is one metric entry of BENCHMARK.json; per-layer entries
// have no bound.
type listedMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	return bm
}

// TestNamesAgreeWithBenchmarkJSON: BENCHMARK.json lists exactly the
// workloads and the driver-facing metrics the program defines, with the
// same units, directions and bounds, under well-formed names.
func TestNamesAgreeWithBenchmarkJSON(t *testing.T) {
	bm := readBenchmarkJSON(t)
	if len(bm.Paths) != 1 || bm.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", bm.Paths)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.name || bm.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q", i, bm.Workloads[i].Name, bm.Workloads[i].Why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: malformed name or why of %d characters", w.name, len(w.why))
		}
	}
	type def struct {
		unit, better string
		bound        float64
	}
	want := map[string]def{}
	for _, d := range e2eDefs {
		if !nameRE.MatchString(d.name) {
			t.Errorf("malformed metric name %q", d.name)
		}
		if d.driverBound > 0 {
			want[d.name] = def{d.unit, d.better, d.driverBound}
		}
	}
	for _, m := range bm.EndToEnd {
		if want[m.Name] != (def{m.Unit, m.Better, m.Bound}) {
			t.Errorf("end_to_end %s %s %s bound %v not defined so by the program", m.Name, m.Unit, m.Better, m.Bound)
		}
		delete(want, m.Name)
	}
	for name := range want {
		t.Errorf("BENCHMARK.json lacks end_to_end %s", name)
	}
	seen := map[string]bool{}
	for _, d := range layerDefs {
		if !nameRE.MatchString(d.name) || seen[d.name] {
			t.Errorf("malformed or repeated metric name %q", d.name)
		}
		seen[d.name] = true
		if d.driver {
			want[d.name] = def{d.unit, d.better, 0}
		}
	}
	for _, m := range bm.PerLayer {
		if want[m.Name] != (def{m.Unit, m.Better, 0}) {
			t.Errorf("per_layer %s %s %s not defined so by the program", m.Name, m.Unit, m.Better)
		}
		delete(want, m.Name)
	}
	for name := range want {
		t.Errorf("BENCHMARK.json lacks per_layer %s", name)
	}
}

// TestDriverLines: one driver invocation per trace mode prints, as its
// last line, exactly the object BENCHMARK.json's contract fixes, with
// every listed metric and no other.
func TestDriverLines(t *testing.T) {
	bm := readBenchmarkJSON(t)
	for _, w := range runnable() {
		for trace, listed := range [][]string{names(bm.EndToEnd), names(bm.PerLayer)} {
			code, stdout, stderr := invoke(t, "--workload", w.name, "--seed", "5", "--seconds", "1",
				"--trace", []string{"0", "1"}[trace], "-toy", "-out", t.TempDir())
			if code != 0 {
				t.Fatalf("%s trace %d: exit %d: %s", w.name, trace, code, stderr)
			}
			lines := strings.Split(strings.TrimSpace(stdout), "\n")
			var raw map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
				t.Fatalf("%s trace %d: last line is not JSON: %v", w.name, trace, err)
			}
			if len(raw) != 4 {
				t.Errorf("%s trace %d: result has keys %v", w.name, trace, raw)
			}
			var res driverResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace %d: %+v", w.name, trace, res)
			}
			if len(res.Metrics) != len(listed) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json lists %d", w.name, trace, len(res.Metrics), len(listed))
			}
			for _, name := range listed {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace %d: no %s", w.name, trace, name)
				}
			}
			if trace == 0 {
				for name, v := range res.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v", w.name, name, v.Value)
					}
				}
			}
		}
	}
}

func names(ms []listedMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	return out
}

// TestGoldenMismatchFails: a repetition at the pinned seed whose hash is
// not the golden one is a failed operation.
func TestGoldenMismatchFails(t *testing.T) {
	w, _ := findWorkload("light-mobile-serial")
	m := &measured{w: w, seed: w.seed, toy: true}
	m.add(childRun{repResult: repResult{Attempted: 1, Hash: "not-the-golden-hash"}})
	if err := m.checkGolden(); err != nil {
		t.Fatal(err)
	}
	if m.failed != 1 || !strings.Contains(m.firstError, "golden") {
		t.Errorf("failed=%d error=%q", m.failed, m.firstError)
	}
	// Repetition-to-repetition drift at any seed.
	m = &measured{w: w, seed: 99, toy: true}
	m.add(childRun{repResult: repResult{Attempted: 1, Hash: "a"}})
	m.add(childRun{repResult: repResult{Attempted: 1, Hash: "b"}})
	if m.failed != 1 {
		t.Errorf("drifting hashes: failed=%d", m.failed)
	}
}

// TestFailedRepetitionStillReports: a DES repetition that failed stops
// before its counts are filled. The report must then carry the failure
// and its first error, not die on a NaN ratio over the missing counts.
func TestFailedRepetitionStillReports(t *testing.T) {
	w, _ := findWorkload("overload-sharded")
	failed := childRun{repResult: desFailure(repResult{RunS: 1.5, SetupS: 0.01}, "invariant", os.ErrInvalid), PeakRSSMB: 80}
	m := &measured{w: w, seed: 99}
	m.add(failed)
	// A caller that ran the layer runs before the failure showed still
	// gets no per-layer section.
	for _, lr := range []*layerRuns{nil, {traced: failed, oneWorker: &failed}} {
		wr := workloadReportOf(m, lr, map[string]float64{})
		if wr.Failed != 1 || wr.Attempted != 1 || !strings.Contains(wr.Error, "invariant") || wr.failure() == nil {
			t.Errorf("failure not carried: %+v", wr)
		}
		if wr.PerLayer != nil || wr.Reconcile != nil {
			t.Errorf("per-layer section derived from a failed repetition: %+v", wr.PerLayer)
		}
		if wr.EndToEnd[failedFrac].Median != 1 {
			t.Errorf("failed_frac = %v", wr.EndToEnd[failedFrac].Median)
		}
		rep := report{Workloads: []workloadReport{wr}}
		if err := rep.write(filepath.Join(t.TempDir(), "report.json")); err != nil {
			t.Errorf("report not written: %v", err)
		}
	}
	if lr, err := runLayerRuns(m, repOpts{}); lr != nil || err != nil {
		t.Errorf("layer runs made for a failed workload: %v %v", lr, err)
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	s := summarize("s", []float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if s.Q1 != 3.5 || s.Median != 13.5 || s.Q3 != 31 || s.N != 10 {
		t.Errorf("%+v", s)
	}
	// statistics.quantiles([5, 6, 9], n=4) == [5.0, 6.0, 9.0]
	s = summarize("s", []float64{9, 5, 6})
	if s.Q1 != 5 || s.Median != 6 || s.Q3 != 9 {
		t.Errorf("%+v", s)
	}
	if one := summarize("s", []float64{3}); one.Q1 != 3 || one.Q3 != 3 || one.spread() != 0 {
		t.Errorf("%+v", one)
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer("w")
	endOuter := tr.begin("outer")
	endInner := tr.begin("inner")
	time.Sleep(2 * time.Millisecond)
	endInner()
	t0 := time.Now()
	tr.add("stamped", t0, t0.Add(time.Millisecond))
	endOuter()
	tot := tr.totals()
	outer, inner := tot["outer"], tot["inner"]
	if tr.spans[1].Parent != 0 || tr.spans[2].Parent != 0 || tr.spans[0].Parent != -1 {
		t.Errorf("parents: %+v", tr.spans)
	}
	if got, want := outer.SelfS, outer.TotalS-inner.TotalS-0.001; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("outer self %v, want %v", got, want)
	}
	var off *tracer
	off.begin("x")()
	off.add("y", t0, t0)
	if off.totals() != nil || off.ringSize() != 0 {
		t.Error("nil tracer is not inert")
	}
}
