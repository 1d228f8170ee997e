package traffic_test

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/chanset"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// scaleOutcome is everything observable about one giant-grid run.
type scaleOutcome struct {
	driver  driver.Stats
	traffic traffic.Stats
	events  uint64
}

// TestRunParallelScaleDeterminism pins the giant-grid determinism
// contract on the 500x500 (250k-cell) wrapped lattice: every (shards,
// workers) combination over shards {64, 256} and workers {1, NumCPU}
// must produce identical driver and traffic statistics, event counts
// included. The 256-shard runs double as the sparse-routing check: no
// shard may materialise more than a small constant number of
// cross-shard routes (row-band tiles only touch adjacent bands), where
// the dense outbox this replaced held one mailbox per (src, dst) pair.
func TestRunParallelScaleDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("250k-cell grid: skipped in short mode")
	}
	g := hexgrid.MustNew(hexgrid.Config{
		Shape: hexgrid.Rect, Width: 500, Height: 500, ReuseDistance: 2, Wrap: true,
	})
	assign := chanset.MustAssign(g, 70)
	const (
		latency  = sim.Time(10)
		meanHold = 3000.0
		duration = sim.Time(150)
	)
	spec := traffic.Spec{
		Profile:  traffic.Uniform{PerCell: 9.0 / meanHold},
		MeanHold: meanHold,
		Duration: duration,
		Warmup:   duration / 5,
		Seed:     101,
	}
	workerCounts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	var base *scaleOutcome
	for _, shards := range []int{64, 256} {
		for _, workers := range workerCounts {
			factory, err := registry.Build("adaptive", g, assign, registry.Config{Latency: latency})
			if err != nil {
				t.Fatal(err)
			}
			p, err := driver.NewParallel(g, assign, factory, driver.ParallelOptions{
				Latency: latency, Seed: 101, Shards: shards, Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			ts, err := traffic.Run(p, spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.CheckInvariant(); err != nil {
				t.Fatal(err)
			}
			got := &scaleOutcome{driver: p.Stats(), traffic: ts, events: p.Kernel().Executed()}
			if base == nil {
				base = got
				if got.events == 0 || got.traffic.Offered == 0 {
					t.Fatalf("degenerate run: %d events, %d offered", got.events, got.traffic.Offered)
				}
			} else {
				if got.events != base.events {
					t.Errorf("shards=%d workers=%d executed %d events, first combo %d",
						shards, workers, got.events, base.events)
				}
				if !reflect.DeepEqual(got.driver, base.driver) {
					t.Errorf("shards=%d workers=%d driver stats diverge from first combo", shards, workers)
				}
				if !reflect.DeepEqual(got.traffic, base.traffic) {
					t.Errorf("shards=%d workers=%d traffic stats diverge from first combo", shards, workers)
				}
			}
			if shards == 256 {
				maxRoutes := 0
				for s := 0; s < shards; s++ {
					if r := p.Kernel().Routes(s); r > maxRoutes {
						maxRoutes = r
					}
				}
				if maxRoutes == 0 {
					t.Error("no cross-shard routes materialised at 256 shards; halo traffic missing")
				}
				if maxRoutes > 10 {
					t.Errorf("max routes per shard = %d at 256 shards; want <= 10 (O(neighbor shards))", maxRoutes)
				}
			}
		}
	}
}
