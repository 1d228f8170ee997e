package experiments

import (
	"os"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/traffic"
)

func TestForEachJobCoversEveryIndexOnce(t *testing.T) {
	for _, width := range []int{0, 1, 2, 4, 16} {
		n := 37
		counts := make([]int32, n)
		var mu sync.Mutex
		forEachJob(n, width, func(i int) {
			mu.Lock()
			counts[i]++
			mu.Unlock()
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("width %d: index %d ran %d times", width, i, c)
			}
		}
	}
}

func TestForEachJobZeroJobs(t *testing.T) {
	forEachJob(0, 4, func(int) { t.Fatal("fn called with no jobs") })
}

func TestDefaultWorkersEnvOverride(t *testing.T) {
	t.Setenv("ADCA_WORKERS", "3")
	if got := DefaultWorkers(); got != 3 {
		t.Fatalf("ADCA_WORKERS=3: got %d", got)
	}
	t.Setenv("ADCA_WORKERS", "junk")
	if got := DefaultWorkers(); got != runtime.NumCPU() {
		t.Fatalf("invalid ADCA_WORKERS should fall back to NumCPU: got %d", got)
	}
	os.Unsetenv("ADCA_WORKERS")
	if got := DefaultWorkers(); got != runtime.NumCPU() {
		t.Fatalf("unset ADCA_WORKERS should be NumCPU: got %d", got)
	}
}

// detTestEnv is a shortened DefaultEnv so the cross-width sweep stays
// fast; the figure itself is rendered in full.
func detTestEnv() Env {
	env := DefaultEnv()
	env.Duration = 40_000
	env.Warmup = 10_000
	return env
}

// TestSweepDeterminismAcrossWidths is the tentpole's determinism
// guarantee: one full figure (F1, the load-sweep blocking chart) run
// through the pool at width 1 (pure sequential, no goroutines), width 4
// and width NumCPU must produce byte-identical rendered artifacts and
// identical Measured values.
func TestSweepDeterminismAcrossWidths(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-width sweep is slow")
	}
	loads := []float64{0.3, 0.9}
	widths := []int{1, 4, runtime.NumCPU()}

	var refRes SweepResult
	var refMeasured []Measured
	var refF1, refCSV string
	for i, w := range widths {
		env := detTestEnv()
		env.Workers = w
		res, err := LoadSweep(env, loads, nil)
		if err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		// The same grid through the sweep itself, for every Measured
		// field, not only those the figures draw.
		schemes := Schemes()
		rs, err := sweep(env, across(len(schemes), len(loads), func(i, j int) spec {
			return spec{env: env, scheme: schemes[i], profile: traffic.Uniform{PerCell: env.RatePerCell(loads[j] * env.PrimariesPerCell())}}
		}))
		if err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		measured := make([]Measured, len(rs))
		for j, r := range rs {
			measured[j] = r.Measured
		}
		f1 := res.Blocking.Render()
		csv := res.CSV()
		if i == 0 {
			refRes, refMeasured, refF1, refCSV = res, measured, f1, csv
			continue
		}
		if !reflect.DeepEqual(measured, refMeasured) {
			t.Errorf("width %d: Measured values differ from width-1 run", w)
		}
		if f1 != refF1 {
			t.Errorf("width %d: F1 artifact differs from width-1 run:\n%s\n----\n%s", w, refF1, f1)
		}
		if csv != refCSV {
			t.Errorf("width %d: CSV artifact differs from width-1 run", w)
		}
		if !reflect.DeepEqual(res, refRes) {
			t.Errorf("width %d: figure values differ from width-1 run", w)
		}
	}
}
