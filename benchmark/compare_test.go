package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// baseReport is a small, healthy two-workload report.
func baseReport() report {
	sum := func(unit string, vs ...float64) summary { return summarize(unit, vs) }
	return report{Host: host{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.x"}, Workloads: []workloadReport{
		{
			Name: "overload-sharded", Seed: 101, Hash: "aaaa", Attempted: 5,
			EndToEnd: map[string]summary{
				"setup_s":     sum("s", 0.020, 0.021, 0.022, 0.021, 0.020),
				"run_s":       sum("s", 4.70, 4.72, 4.68, 4.71, 4.69),
				"calls_per_s": sum("1/s", 40800, 40700, 41000, 40750, 40900),
				"peak_rss_mb": sum("MB", 80, 81, 80, 82, 81),
				failedFrac:    sum("ratio", 0),
			},
			PerLayer: map[string]metricValue{
				"sim.events":  {Unit: "count", Value: 13833554},
				"sim.windows": {Unit: "count", Value: 3558},
				"core.xi1":    {Unit: "ratio", Value: 0.4},
			},
		},
		{
			Name: "tcp-borrow", Seed: 1, Attempted: 180000,
			EndToEnd: map[string]summary{
				"setup_s":      sum("s", 0.0021, 0.0022, 0.0020),
				"peak_rss_mb":  sum("MB", 15, 15.2, 15.1),
				"round_p50_us": sum("us", 64, 64.5, 63.8),
				"round_p99_us": sum("us", 190, 195, 188),
				"rounds_per_s": sum("1/s", 13300, 13280, 13350),
				failedFrac:     sum("ratio", 0),
			},
		},
	}}
}

// scaled returns s with every value multiplied by f.
func scaled(s summary, f float64) summary {
	vs := make([]float64, len(s.Values))
	for i, v := range s.Values {
		vs[i] = v * f
	}
	return summarize(s.Unit, vs)
}

func TestCompareDoctoredReports(t *testing.T) {
	cases := []struct {
		name   string
		doctor func(b *report)
		// wantErr: the pair is refused. Otherwise the named row must carry
		// the verdict and no other row may be worse.
		wantErr          string
		workload, metric string
		verdict          string
	}{
		{name: "same report", doctor: func(*report) {}, workload: "overload-sharded", metric: "run_s", verdict: verdictUnchanged},
		{name: "drifted hash", doctor: func(b *report) { b.Workloads[0].Hash = "bbbb" },
			workload: "overload-sharded", metric: "trajectory_hash", verdict: verdictWorse},
		{name: "missing workload", doctor: func(b *report) { b.Workloads = b.Workloads[:1] },
			workload: "tcp-borrow", metric: "-", verdict: verdictWorse},
		{name: "metric outside bound", doctor: func(b *report) {
			e := b.Workloads[0].EndToEnd
			e["run_s"] = scaled(e["run_s"], 1.2)
		}, workload: "overload-sharded", metric: "run_s", verdict: verdictWorse},
		{name: "metric inside bound", doctor: func(b *report) {
			e := b.Workloads[0].EndToEnd
			e["run_s"] = scaled(e["run_s"], 1.06)
		}, workload: "overload-sharded", metric: "run_s", verdict: verdictUnchanged},
		{name: "higher-is-better metric fell", doctor: func(b *report) {
			e := b.Workloads[1].EndToEnd
			e["rounds_per_s"] = scaled(e["rounds_per_s"], 0.9)
		}, workload: "tcp-borrow", metric: "rounds_per_s", verdict: verdictWorse},
		{name: "improvement beyond bound", doctor: func(b *report) {
			e := b.Workloads[1].EndToEnd
			e["round_p50_us"] = scaled(e["round_p50_us"], 0.8)
		}, workload: "tcp-borrow", metric: "round_p50_us", verdict: verdictBetter},
		{name: "millisecond set-up under the floor", doctor: func(b *report) {
			e := b.Workloads[1].EndToEnd
			e["setup_s"] = scaled(e["setup_s"], 1.5)
		}, workload: "tcp-borrow", metric: "setup_s", verdict: verdictUnchanged},
		{name: "spread wider than bound, runs overlap", doctor: func(b *report) {
			b.Workloads[0].EndToEnd["run_s"] = summarize("s", []float64{4.0, 4.6, 5.2, 5.8, 6.4})
		}, workload: "overload-sharded", metric: "run_s", verdict: verdictUnresolved},
		{name: "spread wider than bound, every run worse", doctor: func(b *report) {
			b.Workloads[0].EndToEnd["run_s"] = summarize("s", []float64{6.0, 6.6, 7.2, 7.8, 8.4})
		}, workload: "overload-sharded", metric: "run_s", verdict: verdictWorse},
		{name: "raised failed_frac", doctor: func(b *report) {
			b.Workloads[1].EndToEnd[failedFrac] = summarize("ratio", []float64{0.001})
		}, workload: "tcp-borrow", metric: failedFrac, verdict: verdictWorse},
		{name: "exact count differs", doctor: func(b *report) {
			b.Workloads[0].PerLayer["sim.events"] = metricValue{Unit: "count", Value: 13833555}
		}, workload: "overload-sharded", metric: "sim.events", verdict: verdictWorse},
		{name: "missing metric", doctor: func(b *report) { delete(b.Workloads[1].EndToEnd, "round_p99_us") },
			workload: "tcp-borrow", metric: "round_p99_us", verdict: verdictWorse},
		{name: "workload only in B", doctor: func(b *report) {
			extra := b.Workloads[0]
			extra.Name = "steady-sharded"
			b.Workloads = append(b.Workloads, extra)
		}, workload: "steady-sharded", metric: "-", verdict: verdictUnresolved},
		{name: "metric only in B", doctor: func(b *report) {
			b.Workloads[0].EndToEnd["round_p50_us"] = summarize("us", []float64{64, 65, 66})
		}, workload: "overload-sharded", metric: "round_p50_us", verdict: verdictUnresolved},
		{name: "zero-filled section", doctor: func(b *report) {
			b.Workloads[1].EndToEnd["rounds_per_s"] = summarize("1/s", []float64{0, 0, 0})
		}, wantErr: "zero-filled"},
		{name: "never-measured section", doctor: func(b *report) {
			b.Workloads[1].EndToEnd["peak_rss_mb"] = summary{Unit: "MB"}
		}, wantErr: "zero-filled"},
		{name: "different seeds", doctor: func(b *report) { b.Workloads[0].Seed = 7 }, wantErr: "seed"},
		{name: "toy against full", doctor: func(b *report) { b.Toy = true }, wantErr: "different sizes"},
		{name: "different GOMAXPROCS", doctor: func(b *report) { b.Host.GOMAXPROCS = 1 }, wantErr: "different hosts"},
		{name: "different processor count", doctor: func(b *report) { b.Host.NumCPU = 8 }, wantErr: "different hosts"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := baseReport(), baseReport()
			tc.doctor(&b)
			rows, err := compareReports(a, b)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want one mentioning %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, r := range rows {
				target := r.Workload == tc.workload && r.Metric == tc.metric
				if target {
					found = true
					if r.Verdict != tc.verdict {
						t.Errorf("%s %s: verdict %s, want %s (%+v)", r.Workload, r.Metric, r.Verdict, tc.verdict, r)
					}
				} else if r.Verdict == verdictWorse {
					t.Errorf("unrelated row is worse: %+v", r)
				}
			}
			if !found {
				t.Errorf("no row for %s %s", tc.workload, tc.metric)
			}
		})
	}
}

// TestCompareExitCode drives -compare through the command line: a clean
// pair exits 0, a regression exits non-zero, an unreadable file is a
// usage error.
func TestCompareExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r report) string {
		path := filepath.Join(dir, name)
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", baseReport())
	worse := baseReport()
	worse.Workloads[0].Hash = "drifted"
	b := write("b.json", worse)
	if code, out, _ := invoke(t, "-compare", a, a); code != 0 || !strings.Contains(out, "0 worse") {
		t.Errorf("A/A: exit %d\n%s", code, out)
	}
	if code, out, _ := invoke(t, "-compare", a, b); code == 0 || !strings.Contains(out, "1 worse") {
		t.Errorf("A/B: exit %d\n%s", code, out)
	}
	if code, _, _ := invoke(t, "-compare", a, filepath.Join(dir, "absent.json")); code == 0 {
		t.Error("missing file accepted")
	}
	if code, _, _ := invoke(t, "-compare", a); code == 0 {
		t.Error("one file accepted")
	}
}
