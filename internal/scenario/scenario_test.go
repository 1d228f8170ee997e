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
	f, err := Load(p)
	if err != nil {
		t.Fatal(err)
	}
	sc, w := f.Scenario, f.Workload
	if sc.Scheme != "adaptive" || sc.Channels != 70 || !sc.Wrap || sc.GridWidth != 7 || sc.Seed != 42 || !sc.CheckInterference {
		t.Fatalf("parsed: %+v", sc)
	}
	if sc.Adaptive == nil || sc.Adaptive.Alpha != 3 {
		t.Fatalf("adaptive block: %+v", sc.Adaptive)
	}
	// The hot spot centres on the interior cell; the workload takes the
	// top-level seed.
	if w.HotErlang != 25 || w.HotRadius != 1 || w.HotCell != -1 || w.Seed != 42 || w.DurationTicks != 200000 {
		t.Fatalf("workload block: %+v", w)
	}
}

func TestLoadMinimal(t *testing.T) {
	f, err := Load(write(t, `{}`))
	if err != nil {
		t.Fatal(err)
	}
	if f.Scenario != (Scenario{CheckInterference: true}) || f.Workload.Phases != nil || f.Workload.Diurnal != nil || f.Fault != nil {
		t.Fatalf("minimal: %+v", f)
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
	// Sides whose product overflows int are refused by the limit, not
	// wrapped past it.
	for _, body := range []string{`{"grid": {"width": 4294967296}}`, `{"grid": {"width": 3037000500}}`} {
		if _, err := Load(write(t, body)); err == nil || !strings.Contains(err.Error(), "16777215 origins") {
			t.Errorf("%s: want an error naming the 16777215-origin limit, got %v", body, err)
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
	f, err := Load(write(t, `{
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
	w := f.Workload
	if len(w.Phases) != 2 {
		t.Fatalf("phases: %+v", w)
	}
	if w.Phases[0].HotCell != 12 || w.Phases[0].HotRadius != 1 || w.Phases[0].HotErlang != 25 || w.Phases[0].EndTicks != 80000 {
		t.Fatalf("pinned center lost: %+v", w.Phases[0])
	}
	if w.Phases[1].HotCell != -1 {
		t.Fatal("omitted center_cell must select the interior cell")
	}
	if w.Diurnal == nil || w.Diurnal.Swing != 0.5 || w.Diurnal.PeriodTicks != 100000 {
		t.Fatalf("diurnal block: %+v", w.Diurnal)
	}
}

func TestValidateRejectsNegativeHandoffRate(t *testing.T) {
	_, err := Load(write(t, `{"workload": {"handoff_rate": -0.001}}`))
	if err == nil || !strings.Contains(err.Error(), "HandoffRate") {
		t.Fatalf("want descriptive HandoffRate error, got %v", err)
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
	file, err := Load(write(t, `{
		"scheme": "adaptive",
		"fault": {
			"seed": 9, "drop": 0.01, "duplicate": 0.02, "reorder": 0.03,
			"jitter_max_micros": 200, "request_timeout_ms": 5000
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	f := file.Fault
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

func TestLoadPolicyBlocks(t *testing.T) {
	p := write(t, `{
		"scheme": "adaptive",
		"predictor": {"name": "ewma", "params": {"alpha": 0.2}},
		"lender": {"name": "interference-aware"}
	}`)
	f, err := Load(p)
	if err != nil {
		t.Fatal(err)
	}
	sc := f.Scenario
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

func shippedScenarios(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no shipped scenarios found: %v", err)
	}
	return files
}

// TestShippedScenariosLoad: every scenario file the repo ships parses and
// validates.
func TestShippedScenariosLoad(t *testing.T) {
	for _, f := range shippedScenarios(t) {
		if _, err := Load(f); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}

// TestCheckedInScenariosLoad: one of the shipped scenario files exercises
// the policy blocks.
func TestCheckedInScenariosLoad(t *testing.T) {
	var sawPolicy bool
	for _, f := range shippedScenarios(t) {
		file, err := Load(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if sc := file.Scenario; sc.Predictor != nil || sc.Lender != nil {
			sawPolicy = true
		}
	}
	if !sawPolicy {
		t.Error("no checked-in scenario exercises the predictor/lender blocks")
	}
}

func TestValidateRejectsNegativeDrainHorizon(t *testing.T) {
	_, err := Load(write(t, `{"workload": {"drain_horizon": -1}}`))
	if err == nil || !strings.Contains(err.Error(), "DrainHorizonTicks") {
		t.Fatalf("want descriptive DrainHorizonTicks error, got %v", err)
	}
	if _, err := Load(write(t, `{"workload": {"duration_ticks": 1000, "drain_horizon": 200}}`)); err != nil {
		t.Fatalf("positive drain_horizon should load, got %v", err)
	}
}

// TestLoadRefusesWhatNewRefuses: a file is refused at load for what
// building its scenario would refuse, with a message naming the field.
func TestLoadRefusesWhatNewRefuses(t *testing.T) {
	for body, want := range map[string]string{
		`{"adaptive": {"theta_low": 0, "theta_high": 0}}`: "ThetaLow",
		`{"adaptive": {"theta_low": 1, "theta_high": 3}}`: "WindowTicks",
		`{"max_rounds": -3}`:                              "MaxRounds",
		`{"scheme": "nope"}`:                              "unknown scheme",
		`{"jitter_ticks": -1}`:                            "JitterTicks",
		`{"workload": {"warmup_ticks": 120000}}`:          "WarmupTicks",
	} {
		if _, err := Load(write(t, body)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: want an error naming %s, got %v", body, want, err)
		}
	}
}
