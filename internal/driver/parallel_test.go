package driver_test

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

type parScenario struct {
	name     string
	grid     hexgrid.Config
	channels int
	erlang   float64
	duration sim.Time
	warmup   sim.Time
	trace    int
}

// f1Scenario is the default 7x7 evaluation lattice at moderate load.
func f1Scenario() parScenario {
	return parScenario{
		name:     "F1",
		grid:     hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true},
		channels: 70,
		erlang:   7,
		duration: 30_000,
		warmup:   5_000,
		trace:    40_000,
	}
}

// borrowHeavyScenario is a 50x50 lattice loaded to 90% of the primary
// set, so a large fraction of grants need cross-cell borrowing.
func borrowHeavyScenario() parScenario {
	return parScenario{
		name:     "borrow-heavy-50x50",
		grid:     hexgrid.Config{Shape: hexgrid.Rect, Width: 50, Height: 50, ReuseDistance: 2, Wrap: true},
		channels: 70,
		erlang:   9,
		duration: 6_000,
		warmup:   1_000,
		trace:    40_000,
	}
}

type parOutcome struct {
	stats   driver.Stats
	traffic traffic.Stats
	trace   int // total trace events (contents compared separately)
	use     []chanset.Set
}

func runParScenario(t *testing.T, sc parScenario, shards, workers int) (parOutcome, []interface{}) {
	t.Helper()
	g, err := hexgrid.New(sc.grid)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := chanset.Assign(g, sc.channels)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := registry.Build("adaptive", g, assign, registry.Config{Latency: 10})
	if err != nil {
		t.Fatal(err)
	}
	p, err := driver.NewParallel(g, assign, factory, driver.ParallelOptions{
		Latency: 10, Seed: 101, Shards: shards, Workers: workers, TraceSize: sc.trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := traffic.Run(p, traffic.Spec{
		Profile:  traffic.Uniform{PerCell: sc.erlang / 3000},
		MeanHold: 3000,
		Duration: sc.duration,
		Warmup:   sc.warmup,
		Seed:     101,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	use := make([]chanset.Set, g.NumCells())
	for c := range use {
		use[c] = p.Allocator(hexgrid.CellID(c)).InUse()
	}
	tr := p.Trace()
	events := make([]interface{}, len(tr))
	for i, e := range tr {
		events[i] = e
	}
	return parOutcome{stats: p.Stats(), traffic: ts, trace: len(tr), use: use}, events
}

// TestParallelDeterminismAcrossWorkers runs each scenario at several
// worker counts and asserts bit-identical Stats, traffic stats, trace,
// and final per-cell Use sets.
func TestParallelDeterminismAcrossWorkers(t *testing.T) {
	scenarios := []parScenario{f1Scenario()}
	if !testing.Short() {
		scenarios = append(scenarios, borrowHeavyScenario())
	}
	workerCounts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		workerCounts = append(workerCounts, n)
	}
	for _, sc := range scenarios {
		ref, refTrace := runParScenario(t, sc, 16, workerCounts[0])
		if ref.stats.Grants == 0 {
			t.Fatalf("%s: no grants — scenario is vacuous", sc.name)
		}
		if ref.stats.Counters.GrantsUpdate+ref.stats.Counters.GrantsSearch == 0 {
			t.Fatalf("%s: no borrowing grants — cross-shard path unexercised", sc.name)
		}
		for _, w := range workerCounts[1:] {
			got, gotTrace := runParScenario(t, sc, 16, w)
			if !reflect.DeepEqual(got.stats, ref.stats) {
				t.Errorf("%s workers=%d: Stats diverged from workers=%d", sc.name, w, workerCounts[0])
			}
			if !reflect.DeepEqual(got.traffic, ref.traffic) {
				t.Errorf("%s workers=%d: traffic stats diverged", sc.name, w)
			}
			if !reflect.DeepEqual(got.use, ref.use) {
				t.Errorf("%s workers=%d: final Use sets diverged", sc.name, w)
			}
			if !reflect.DeepEqual(gotTrace, refTrace) {
				t.Errorf("%s workers=%d: trace diverged (%d vs %d events)", sc.name, w, got.trace, ref.trace)
			}
		}
	}
}

// TestParallelDeterminismAcrossShards asserts the stronger property the
// canonical (at, origin, counter) order buys: per-cell trajectories do
// not depend on the shard count either, so shards=1 (one heap, no
// mailboxes — the serial reference) matches any sharding exactly.
func TestParallelDeterminismAcrossShards(t *testing.T) {
	sc := f1Scenario()
	ref, refTrace := runParScenario(t, sc, 1, 1)
	for _, shards := range []int{2, 7, 16, 49} {
		got, gotTrace := runParScenario(t, sc, shards, 4)
		if !reflect.DeepEqual(got.stats, ref.stats) {
			t.Errorf("shards=%d: Stats diverged from the serial reference", shards)
		}
		if !reflect.DeepEqual(got.traffic, ref.traffic) {
			t.Errorf("shards=%d: traffic stats diverged", shards)
		}
		if !reflect.DeepEqual(got.use, ref.use) {
			t.Errorf("shards=%d: final Use sets diverged", shards)
		}
		if !reflect.DeepEqual(gotTrace, refTrace) {
			t.Errorf("shards=%d: trace diverged", shards)
		}
	}
}

// TestParallelUseSetsMidRun stops the kernel mid-run (calls still held,
// messages still in flight) and compares the channel-set snapshot
// across worker counts — catching divergence that final-state checks
// would mask after drain.
func TestParallelUseSetsMidRun(t *testing.T) {
	snapshot := func(workers int) []chanset.Set {
		g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 9, Height: 9, ReuseDistance: 2, Wrap: true})
		assign := chanset.MustAssign(g, 27)
		factory, err := registry.Build("adaptive", g, assign, registry.Config{Latency: 10})
		if err != nil {
			t.Fatal(err)
		}
		p, err := driver.NewParallel(g, assign, factory, driver.ParallelOptions{
			Latency: 10, Seed: 7, Shards: 9, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < g.NumCells(); c++ {
			cell := hexgrid.CellID(c)
			rng := sim.Substream(7, uint64(c))
			for i := 0; i < 6; i++ {
				at := sim.Time(rng.Intn(4000))
				hold := sim.Time(1 + rng.Intn(3000))
				p.At(cell, at, func() {
					p.Request(cell, func(r driver.Result) {
						if r.Granted {
							p.After(r.Cell, hold, func() { p.Release(r.Cell, r.Ch) })
						}
					})
				})
			}
		}
		p.Run(2500) // mid-run: calls held, releases and arrivals still queued
		use := make([]chanset.Set, g.NumCells())
		held := 0
		for c := range use {
			use[c] = p.Allocator(hexgrid.CellID(c)).InUse()
			held += use[c].Len()
		}
		if held == 0 || p.Kernel().Pending() == 0 {
			t.Fatalf("mid-run snapshot is vacuous: %d channels held, %d events pending", held, p.Kernel().Pending())
		}
		return use
	}
	ref := snapshot(1)
	for _, w := range []int{2, 4} {
		if got := snapshot(w); !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d: mid-run Use sets diverged from workers=1", w)
		}
	}
}

// TestParallelRaceStress exercises the barrier/mailbox path with every
// concurrency-sensitive option on (jitter, wire codec, barrier
// invariant checks, tracing, obs counters). Its value is under -race:
// the CI race-parallel job runs it with the detector enabled.
func TestParallelRaceStress(t *testing.T) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 15, Height: 15, ReuseDistance: 2, Wrap: true})
	assign := chanset.MustAssign(g, 70)
	factory, err := registry.Build("adaptive", g, assign, registry.Config{Latency: 10})
	if err != nil {
		t.Fatal(err)
	}
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4
	}
	p, err := driver.NewParallel(g, assign, factory, driver.ParallelOptions{
		Latency: 10, Jitter: 3, Seed: 42, Shards: 8, Workers: workers,
		Check: true, Wire: true, TraceSize: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := traffic.Run(p, traffic.Spec{
		Profile:  traffic.Uniform{PerCell: 9.0 / 3000},
		MeanHold: 3000,
		Duration: 4_000,
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ts.Offered == 0 {
		t.Fatal("stress run offered no calls")
	}
	if err := p.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelRejectsBadOptions pins the constructor's validation.
func TestParallelRejectsBadOptions(t *testing.T) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 4, Height: 4, ReuseDistance: 1})
	assign := chanset.MustAssign(g, 12)
	factory, err := registry.Build("adaptive", g, assign, registry.Config{Latency: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := driver.NewParallel(g, assign, factory, driver.ParallelOptions{Shards: 99}); err == nil {
		t.Error("Shards > cells accepted")
	}
	if _, err := driver.NewParallel(g, assign, factory, driver.ParallelOptions{Latency: -1}); err == nil {
		t.Error("negative latency accepted")
	}
}
