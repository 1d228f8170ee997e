package adca_test

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (see DESIGN.md §4 for the experiment index):
//
//	BenchmarkTable1General      Table 1 — general-load comparison
//	BenchmarkTable2LowLoad      Table 2 — low-load comparison
//	BenchmarkTable3Bounds       Table 3 — min/max bounds
//	BenchmarkFigDropVsLoad      F1 — blocking vs load
//	BenchmarkFigDelayVsLoad     F2 — acquisition delay vs load
//	BenchmarkFigMessagesVsLoad  F3 — messages per call vs load
//	BenchmarkFigHotspot         F4 — hot-spot blocking
//	BenchmarkFigAblation*       F5 — α / θ / W ablations
//	BenchmarkFigScalability     F6 — cost vs system size
//	BenchmarkFigModeOccupancy   F7 — ξ1/ξ2/ξ3 vs load
//	BenchmarkFigFairness        F8 — Jain fairness vs load
//
// Each bench prints its artifact once (so `go test -bench=. | tee` keeps
// the full reproduction output) and reports headline numbers as bench
// metrics. Runs are deterministic; see EXPERIMENTS.md for the recorded
// paper-vs-measured comparison.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/experiments"
)

// benchEnv is the environment all table/figure benches share.
func benchEnv() experiments.Env {
	e := experiments.DefaultEnv()
	e.Duration = 80_000
	e.Warmup = 15_000
	e.Seeds = []uint64{101, 202}
	return e
}

var printOnce sync.Map

// emit prints an artifact once per process.
func emit(key, artifact string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n%s\n", artifact)
	}
}

func BenchmarkTable1General(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(benchEnv())
		if err != nil {
			b.Fatal(err)
		}
		emit("table1", res.Render())
		b.ReportMetric(res.Value("adaptive", "msgs/call"), "msgs/call")
		b.ReportMetric(res.Value("adaptive", "acq time (T)"), "acqT")
	}
}

func BenchmarkTable2LowLoad(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(benchEnv())
		if err != nil {
			b.Fatal(err)
		}
		emit("table2", res.Render())
		b.ReportMetric(res.Value("adaptive", "msgs/call"), "msgs/call")
	}
}

func BenchmarkTable3Bounds(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(benchEnv(), nil)
		if err != nil {
			b.Fatal(err)
		}
		emit("table3", res.Render())
		b.ReportMetric(res.Value("adaptive", "max msgs"), "max-msgs")
		b.ReportMetric(res.Value("adaptive", "max time"), "max-acqT")
	}
}

// The three load-sweep figures share one (expensive) sweep.
var (
	sweepOnce sync.Once
	sweepRes  experiments.SweepResult
	sweepErr  error
)

func loadSweep(b *testing.B) experiments.SweepResult {
	b.Helper()
	sweepOnce.Do(func() {
		sweepRes, sweepErr = experiments.LoadSweep(benchEnv(), nil, nil)
	})
	if sweepErr != nil {
		b.Fatal(sweepErr)
	}
	return sweepRes
}

func BenchmarkFigDropVsLoad(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := loadSweep(b)
		emit("f1", res.Blocking.Render()+"\n"+res.Table())
		c := res.Blocking.Values("adaptive")
		b.ReportMetric(c[len(c)-1], "block@max")
	}
}

func BenchmarkFigDelayVsLoad(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := loadSweep(b)
		emit("f2", res.Delay.Render())
		c := res.Delay.Values("adaptive")
		b.ReportMetric(c[len(c)-1], "acqT@max")
	}
}

func BenchmarkFigMessagesVsLoad(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := loadSweep(b)
		emit("f3", res.Messages.Render())
		b.ReportMetric(res.Messages.Values("adaptive")[0], "msgs@min")
	}
}

func BenchmarkFigModeOccupancy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := loadSweep(b)
		emit("f7", res.Modes.Render())
		c := res.Modes.Values("ξ3 search")
		b.ReportMetric(c[len(c)-1], "xi3@max")
	}
}

func BenchmarkFigHotspot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Hotspot(benchEnv(), nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		emit("f4", res.Render())
		last := len(res.X) - 1
		b.ReportMetric(res.Values("fixed")[last]-res.Values("adaptive")[last], "fix-adp@max")
	}
}

func BenchmarkFigAblationAlpha(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Ablation(benchEnv(), "alpha", nil)
		if err != nil {
			b.Fatal(err)
		}
		emit("f5a", res.Render())
	}
}

func BenchmarkFigAblationTheta(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Ablation(benchEnv(), "theta", nil)
		if err != nil {
			b.Fatal(err)
		}
		emit("f5b", res.Render())
	}
}

func BenchmarkFigAblationWindow(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Ablation(benchEnv(), "window", nil)
		if err != nil {
			b.Fatal(err)
		}
		emit("f5c", res.Render())
	}
}

func BenchmarkFigScalability(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := benchEnv()
		e.Duration = 50_000
		e.Seeds = []uint64{101}
		res, err := experiments.Scalability(e, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		emit("f6", res.Render())
		curve := res.Values("adaptive")
		b.ReportMetric(curve[len(curve)-1], "msgs@961cells")
	}
}

func BenchmarkFigAblationLender(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationLender(benchEnv())
		if err != nil {
			b.Fatal(err)
		}
		emit("f5d", res.Render())
		b.ReportMetric(res.Value("best", "attempts/borrow"), "best-attempts")
	}
}

func BenchmarkFigMobility(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Mobility(benchEnv(), nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		emit("f9", res.Render())
		c := res.Values("adaptive")
		b.ReportMetric(c[len(c)-1], "hdrop@max")
	}
}

func BenchmarkFigTransientHotspot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Transient(benchEnv(), nil)
		if err != nil {
			b.Fatal(err)
		}
		emit("f10", res.Render())
		b.ReportMetric(res.Value("adaptive", "hot blocking"), "adaptive-hotblock")
	}
}

func BenchmarkFigLatencySensitivity(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Latency(benchEnv(), nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		emit("f11", res.Render())
		c := res.Values("adaptive")
		b.ReportMetric(c[len(c)-1], "adp-delay@maxT")
	}
}

func BenchmarkFigRepacking(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Repacking(benchEnv(), nil)
		if err != nil {
			b.Fatal(err)
		}
		emit("f12", res.Render())
		last := len(res.X) - 1
		b.ReportMetric(res.Values("plain")[last]-res.Values("repack")[last], "block-saved")
	}
}

func BenchmarkFigFairness(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fairness(benchEnv(), nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		emit("f8", res.Render())
		c := res.Values("adaptive")
		b.ReportMetric(c[len(c)-1], "jain@max")
	}
}

func BenchmarkTableA1Breakdown(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Breakdown(benchEnv(), nil)
		if err != nil {
			b.Fatal(err)
		}
		emit("a1", res.Render())
		b.ReportMetric(res.Value("adaptive", "bytes/call"), "bytes/call")
	}
}
