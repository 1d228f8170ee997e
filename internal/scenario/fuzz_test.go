package scenario

import (
	"bytes"
	"testing"

	"repro/internal/traffic"
)

// FuzzLoad decodes arbitrary bytes as a scenario file. Decoding never
// panics. A description that validates and is affordable (at most 1 024
// cells, see affordable) goes through Build, which returns a driver or a
// descriptive error, never a panic; a 2 000-tick version of its workload
// then drains to quiescence with the interference checker on. Plain
// `go test` replays the seed corpus in testdata/fuzz/FuzzLoad: every
// file in scenarios/ plus the overflowing grids and the descriptions
// the file validator once let through.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := decode(bytes.NewReader(data))
		if err != nil || !affordable(file.Scenario) {
			return
		}
		parts, err := Build(file.Scenario)
		if err != nil {
			if err.Error() == "" {
				t.Fatal("Build failed without saying why")
			}
			return
		}
		// Odd-length inputs run on three shards, even ones serially.
		d, err := parts.Driver(len(data)%2 == 1, 3, 1)
		if err != nil {
			return
		}
		spec, err := tame(file.Workload).Spec(parts.Grid)
		if err != nil {
			return // a hot cell outside the grid, say
		}
		if _, err := traffic.Run(d, spec); err != nil {
			t.Fatalf("a valid scenario did not drain: %v", err)
		}
		if err := d.CheckInvariant(); err != nil {
			t.Fatal(err)
		}
	})
}

// affordable bounds what a fuzz input may cost to build and run, not
// what is valid: grids of at most 1 024 cells, and spectrum, latency,
// reuse distance, window and retry budgets small enough that one input
// takes milliseconds.
func affordable(sc Scenario) bool {
	d := sc.withDefaults()
	if d.GridWidth > 1024 || d.GridHeight > 1024 || d.GridWidth*d.GridHeight > 1024 {
		return false
	}
	if a := d.Adaptive; a != nil && (a.Alpha > 64 || a.WindowTicks > 100_000) {
		return false
	}
	return d.Channels <= 512 && d.ReuseDistance <= 8 && d.LatencyTicks <= 1000 &&
		d.JitterTicks <= 1000 && d.MaxRounds <= 64
}

// tame shortens w to 2 000 ticks of arrivals with no warm-up and a full
// drain, and clamps its loads and holding time so a run stays small.
func tame(w Workload) Workload {
	w.DurationTicks, w.WarmupTicks, w.DrainHorizonTicks = 2000, 0, 0
	w.ErlangPerCell = min(w.ErlangPerCell, 4)
	w.HotErlang = min(w.HotErlang, 20)
	w.MeanHoldTicks = max(500, min(w.MeanHoldTicks, 5000))
	w.HandoffRate = min(w.HandoffRate, 0.01)
	w.Phases = append([]WorkloadPhase(nil), w.Phases...)
	for i := range w.Phases {
		w.Phases[i].HotErlang = min(w.Phases[i].HotErlang, 20)
	}
	return w
}
