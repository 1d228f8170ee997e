package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "s.json")
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLoadFull(t *testing.T) {
	p := write(t, `{
		"scheme": "adaptive",
		"grid": {"width": 7, "height": 7, "reuse_distance": 2, "wrap": true},
		"channels": 70,
		"latency_ticks": 10,
		"seed": 42,
		"adaptive": {"theta_low": 1, "theta_high": 3, "alpha": 3, "window_ticks": 500},
		"workload": {
			"erlang_per_cell": 6,
			"mean_hold_ticks": 3000,
			"duration_ticks": 200000,
			"warmup_ticks": 20000,
			"hotspot": {"erlang": 25, "radius": 1}
		}
	}`)
	sc, err := Load(p)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Scheme != "adaptive" || sc.Channels != 70 || !sc.Grid.Wrap {
		t.Fatalf("parsed: %+v", sc)
	}
	if sc.Adaptive == nil || sc.Adaptive.Alpha != 3 {
		t.Fatalf("adaptive block: %+v", sc.Adaptive)
	}
	if sc.Workload == nil || sc.Workload.Hotspot == nil || sc.Workload.Hotspot.Erlang != 25 {
		t.Fatalf("workload block: %+v", sc.Workload)
	}
}

func TestLoadMinimal(t *testing.T) {
	sc, err := Load(write(t, `{}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Scheme != "" || sc.Workload != nil {
		t.Fatalf("minimal: %+v", sc)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	if _, err := Load(write(t, `{"chanels": 70}`)); err == nil {
		t.Fatal("typo'd field must be rejected")
	}
}

func TestLoadRejectsBadJSON(t *testing.T) {
	if _, err := Load(write(t, `{`)); err == nil {
		t.Fatal("bad JSON must be rejected")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file must be rejected")
	}
}

func TestValidateRanges(t *testing.T) {
	bad := []string{
		`{"channels": -1}`,
		`{"grid": {"width": -1}}`,
		`{"latency_ticks": -5}`,
		`{"workload": {"erlang_per_cell": -2}}`,
		`{"workload": {"duration_ticks": 100, "warmup_ticks": 100}}`,
		`{"workload": {"hotspot": {"erlang": -1}}}`,
		`{"grid": {"width": 4096, "height": 4096}}`, // 2^24 cells: one past the kernel's packed key
		`{"grid": {"width": 4097}}`,
	}
	for i, body := range bad {
		if _, err := Load(write(t, body)); err == nil {
			t.Errorf("case %d should fail: %s", i, body)
		}
	}
	// The largest addressable grids still validate.
	for _, body := range []string{`{"grid": {"width": 4095, "height": 4097}}`, `{"grid": {"width": 4095}}`} {
		if _, err := Load(write(t, body)); err != nil {
			t.Errorf("%s: %v", body, err)
		}
	}
}

func TestLoadPhasesAndDiurnal(t *testing.T) {
	sc, err := Load(write(t, `{
		"scheme": "adaptive",
		"workload": {
			"erlang_per_cell": 4,
			"handoff_rate": 0.0005,
			"phases": [
				{"center_cell": 12, "radius": 1, "erlang": 25, "start_ticks": 40000, "end_ticks": 80000},
				{"radius": 2, "erlang": 18, "start_ticks": 90000, "end_ticks": 120000}
			],
			"diurnal": {"swing": 0.5, "period_ticks": 100000}
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	w := sc.Workload
	if w == nil || len(w.Phases) != 2 {
		t.Fatalf("phases: %+v", w)
	}
	if w.Phases[0].CenterCell == nil || *w.Phases[0].CenterCell != 12 {
		t.Fatalf("pinned center lost: %+v", w.Phases[0])
	}
	if w.Phases[1].CenterCell != nil {
		t.Fatal("omitted center_cell must stay nil (interior cell)")
	}
	if w.Diurnal == nil || w.Diurnal.Swing != 0.5 || w.Diurnal.PeriodTicks != 100000 {
		t.Fatalf("diurnal block: %+v", w.Diurnal)
	}
}

func TestValidateRejectsNegativeHandoffRate(t *testing.T) {
	_, err := Load(write(t, `{"workload": {"handoff_rate": -0.001}}`))
	if err == nil || !strings.Contains(err.Error(), "handoff_rate") {
		t.Fatalf("want descriptive handoff_rate error, got %v", err)
	}
}

func TestValidatePhaseAndDiurnalRanges(t *testing.T) {
	bad := []string{
		`{"workload": {"phases": [{"erlang": -1, "start_ticks": 0, "end_ticks": 100}]}}`,
		`{"workload": {"phases": [{"erlang": 1, "radius": -1, "start_ticks": 0, "end_ticks": 100}]}}`,
		`{"workload": {"phases": [{"erlang": 1, "center_cell": -3, "start_ticks": 0, "end_ticks": 100}]}}`,
		`{"workload": {"phases": [{"erlang": 1, "start_ticks": 100, "end_ticks": 100}]}}`,
		`{"workload": {"phases": [{"erlang": 1, "start_ticks": -5, "end_ticks": 100}]}}`,
		`{"workload": {"diurnal": {"swing": 1.5, "period_ticks": 100}}}`,
		`{"workload": {"diurnal": {"swing": -0.1, "period_ticks": 100}}}`,
		`{"workload": {"diurnal": {"swing": 0.5, "period_ticks": 0}}}`,
	}
	for i, body := range bad {
		if _, err := Load(write(t, body)); err == nil {
			t.Errorf("case %d should fail: %s", i, body)
		}
	}
}

func TestLoadFaultBlock(t *testing.T) {
	sc, err := Load(write(t, `{
		"scheme": "adaptive",
		"fault": {
			"seed": 9, "drop": 0.01, "duplicate": 0.02, "reorder": 0.03,
			"jitter_max_micros": 200, "request_timeout_ms": 5000
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	f := sc.Fault
	if f == nil || f.Seed != 9 || f.Drop != 0.01 || f.JitterMaxMicros != 200 || f.RequestTimeoutMS != 5000 {
		t.Fatalf("fault block: %+v", f)
	}
}

func TestValidateFaultRanges(t *testing.T) {
	bad := []string{
		`{"fault": {"drop": -0.1}}`,
		`{"fault": {"duplicate": 1.5}}`,
		`{"fault": {"reorder": 2}}`,
		`{"fault": {"jitter_max_micros": -1}}`,
		`{"fault": {"request_timeout_ms": -1}}`,
	}
	for i, body := range bad {
		if _, err := Load(write(t, body)); err == nil {
			t.Errorf("case %d should fail: %s", i, body)
		}
	}
}

func TestShippedScenariosLoad(t *testing.T) {
	// Every scenario file the repo ships must parse and validate.
	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no shipped scenarios found: %v", err)
	}
	for _, p := range files {
		if _, err := Load(p); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}

func TestLoadPolicyBlocks(t *testing.T) {
	p := write(t, `{
		"scheme": "adaptive",
		"predictor": {"name": "ewma", "params": {"alpha": 0.2}},
		"lender": {"name": "interference-aware"}
	}`)
	sc, err := Load(p)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Predictor == nil || sc.Predictor.Name != "ewma" || sc.Predictor.Params["alpha"] != 0.2 {
		t.Fatalf("predictor block: %+v", sc.Predictor)
	}
	if sc.Lender == nil || sc.Lender.Name != "interference-aware" {
		t.Fatalf("lender block: %+v", sc.Lender)
	}
}

func TestValidatePolicyBlocks(t *testing.T) {
	if _, err := Load(write(t, `{"predictor": {"name": "oracle"}}`)); err == nil {
		t.Fatal("unknown predictor name must be rejected")
	} else if !strings.Contains(err.Error(), "oracle") || !strings.Contains(err.Error(), "linear") {
		t.Fatalf("predictor error does not list the registry: %v", err)
	}
	if _, err := Load(write(t, `{"lender": {"name": "greedy"}}`)); err == nil {
		t.Fatal("unknown lender name must be rejected")
	} else if !strings.Contains(err.Error(), "greedy") || !strings.Contains(err.Error(), "best") {
		t.Fatalf("lender error does not list the registry: %v", err)
	}
	if _, err := Load(write(t, `{"predictor": {"name": "ewma", "params": {"alpha": 9}}}`)); err == nil {
		t.Fatal("out-of-range parameter must be rejected")
	} else if !strings.Contains(err.Error(), "alpha") {
		t.Fatalf("parameter error unhelpful: %v", err)
	}
}

func TestCheckedInScenariosLoad(t *testing.T) {
	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no checked-in scenarios found: %v", err)
	}
	var sawPolicy bool
	for _, f := range files {
		sc, err := Load(f)
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if sc.Predictor != nil || sc.Lender != nil {
			sawPolicy = true
		}
	}
	if !sawPolicy {
		t.Error("no checked-in scenario exercises the predictor/lender blocks")
	}
}

func TestValidateRejectsNegativeDrainHorizon(t *testing.T) {
	_, err := Load(write(t, `{"workload": {"drain_horizon": -1}}`))
	if err == nil || !strings.Contains(err.Error(), "drain_horizon") {
		t.Fatalf("want descriptive drain_horizon error, got %v", err)
	}
	if _, err := Load(write(t, `{"workload": {"duration_ticks": 1000, "drain_horizon": 200}}`)); err != nil {
		t.Fatalf("positive drain_horizon should load, got %v", err)
	}
}
