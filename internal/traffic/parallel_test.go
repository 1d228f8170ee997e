package traffic_test

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/chanset"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/registry"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traffic"
)

func parFixture(t *testing.T) (*hexgrid.Grid, *chanset.Assignment, func() *driver.Parallel, *driver.Sim) {
	t.Helper()
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	assign := chanset.MustAssign(g, 70)
	factory, err := registry.Build("adaptive", g, assign, registry.Config{Latency: 10})
	if err != nil {
		t.Fatal(err)
	}
	newPar := func() *driver.Parallel {
		p, err := driver.NewParallel(g, assign, factory, driver.ParallelOptions{Latency: 10, Seed: 101, Shards: 7, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	s := driver.New(g, assign, factory, driver.Options{Latency: 10, Seed: 101})
	return g, assign, newPar, s
}

// TestRunParallelMatchesSerialArrivals checks that the sharded workload
// generator offers exactly the same call schedule as the serial one:
// arrival streams are per-cell RNG substreams with identical labels, so
// PerCellOffered must match cell for cell. (Since the serial engine
// adopted the canonical (time, origin, counter) order, blocking matches
// too — TestRunParallelMobilityMatchesSerial pins the full equality.)
func TestRunParallelMatchesSerialArrivals(t *testing.T) {
	_, _, newPar, s := parFixture(t)
	spec := traffic.Spec{
		Profile:  traffic.Uniform{PerCell: 7.0 / 3000},
		MeanHold: 3000,
		Duration: 20_000,
		Warmup:   2_000,
		Seed:     101,
	}
	serial, err := traffic.Run(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	par, err := traffic.Run(newPar(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Offered == 0 {
		t.Fatal("serial run offered no calls")
	}
	if par.Offered != serial.Offered {
		t.Errorf("offered calls: parallel %d, serial %d", par.Offered, serial.Offered)
	}
	if !reflect.DeepEqual(par.PerCellOffered, serial.PerCellOffered) {
		t.Error("per-cell offered schedules diverged between serial and parallel generators")
	}
	if par.Blocked > par.Offered {
		t.Errorf("blocked %d exceeds offered %d", par.Blocked, par.Offered)
	}
}

// mobileSpec is the shared 7x7 mobility workload: ~6.5 Erlang per cell,
// ~3 handoffs per call, enough traffic that blocking and handoff drops
// both occur within a window short enough for the 20-combination
// determinism matrix to stay fast under -race.
func mobileSpec() traffic.Spec {
	return traffic.Spec{
		Profile:     traffic.Uniform{PerCell: 6.5 / 3000},
		MeanHold:    3000,
		HandoffRate: 0.001,
		Duration:    10_000,
		Warmup:      2_000,
		Seed:        3,
	}
}

// mobileOutcome captures everything the determinism contract pins for a
// mobility run: the driver aggregates, the workload stats (both handoff
// counters included), the merged lifecycle trace, and the final per-cell
// channel-use sets.
type mobileOutcome struct {
	stats   driver.Stats
	traffic traffic.Stats
	trace   []trace.Event
	use     []chanset.Set
}

func runMobileParallel(t *testing.T, g *hexgrid.Grid, assign *chanset.Assignment, shards, workers int) mobileOutcome {
	t.Helper()
	factory, err := registry.Build("adaptive", g, assign, registry.Config{Latency: 10})
	if err != nil {
		t.Fatal(err)
	}
	// TraceSize must hold the whole run even when one shard owns every
	// cell (shards=1): rings that evict would make the merged trace
	// depend on the partition. 2^16 slots comfortably covers the ~20k
	// lifecycle events this workload produces, per ring, cheaply.
	p, err := driver.NewParallel(g, assign, factory, driver.ParallelOptions{
		Latency: 10, Seed: 3, Shards: shards, Workers: workers, TraceSize: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := traffic.Run(p, mobileSpec())
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
	return mobileOutcome{stats: p.Stats(), traffic: ts, trace: p.Trace(), use: use}
}

// TestRunParallelMobilityDeterminism is the acceptance gate for sharded
// mobility: stats, traces and channel-use sets must be bit-identical
// across worker counts 1/2/4/NumCPU and shard counts 1/2/7/16/49.
// Mobility randomness is per-cell (drawn in the owning shard) and the
// handoff relay takes exactly one lookahead window, so neither the
// partition nor the scheduling of workers can perturb the trajectory.
func TestRunParallelMobilityDeterminism(t *testing.T) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	assign := chanset.MustAssign(g, 70)
	base := runMobileParallel(t, g, assign, 7, 1)
	if base.traffic.HandoffAttempts == 0 || base.traffic.HandoffDrops == 0 {
		t.Fatalf("workload too tame to exercise handoffs: %+v", base.traffic)
	}
	workers := []int{1, 2, 4, runtime.NumCPU()}
	shards := []int{1, 2, 7, 16, 49}
	for _, sh := range shards {
		for _, wk := range workers {
			if sh == 7 && wk == 1 {
				continue // the baseline itself
			}
			got := runMobileParallel(t, g, assign, sh, wk)
			if !reflect.DeepEqual(got.traffic, base.traffic) {
				t.Errorf("shards=%d workers=%d traffic stats diverged:\n got %+v\nwant %+v", sh, wk, got.traffic, base.traffic)
			}
			if !reflect.DeepEqual(got.stats, base.stats) {
				t.Errorf("shards=%d workers=%d driver stats diverged", sh, wk)
			}
			if !reflect.DeepEqual(got.trace, base.trace) {
				t.Errorf("shards=%d workers=%d traces diverged (%d vs %d events)", sh, wk, len(got.trace), len(base.trace))
			}
			if !reflect.DeepEqual(got.use, base.use) {
				t.Errorf("shards=%d workers=%d channel-use sets diverged", sh, wk)
			}
		}
	}
}

// TestRunParallelMobilityMatchesSerial drives scenarios/mobility.json's
// workload shape through both engines and requires the same trajectory:
// equal telephony stats (both handoff counters), equal integer driver
// tallies and equal final channel-use sets. Floating-point delay
// aggregates are excluded — the two engines merge Welford accumulators
// in different orders — and request ids differ by design (global vs
// per-cell derivation), so traces are compared shape-wise via use sets
// and counts rather than by Info fields.
func TestRunParallelMobilityMatchesSerial(t *testing.T) {
	f, err := scenario.Load("../../scenarios/mobility.json")
	if err != nil {
		t.Fatal(err)
	}
	parts, err := scenario.Build(f.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	g, assign, factory := parts.Grid, parts.Assign, parts.Factory
	lat, seed := sim.Time(parts.Scenario.LatencyTicks), f.Scenario.Seed
	spec, err := f.Workload.Spec(g)
	if err != nil {
		t.Fatal(err)
	}
	s := driver.New(g, assign, factory, driver.Options{Latency: lat, Seed: seed})
	serialTS, err := traffic.Run(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	serialST := s.Stats()
	for _, shards := range []int{1, 7, 16} {
		p, err := driver.NewParallel(g, assign, factory, driver.ParallelOptions{
			Latency: lat, Seed: seed, Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		parTS, err := traffic.Run(p, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(parTS, serialTS) {
			t.Errorf("shards=%d traffic stats diverged from serial:\n par    %+v\n serial %+v", shards, parTS, serialTS)
		}
		parST := p.Stats()
		if parST.Grants != serialST.Grants || parST.Denies != serialST.Denies ||
			parST.Messages.Total != serialST.Messages.Total ||
			!reflect.DeepEqual(parST.CellGrants, serialST.CellGrants) ||
			!reflect.DeepEqual(parST.CellDenies, serialST.CellDenies) ||
			!reflect.DeepEqual(parST.Counters, serialST.Counters) {
			t.Errorf("shards=%d integer driver stats diverged from serial", shards)
		}
		for c := 0; c < g.NumCells(); c++ {
			su := s.Allocator(hexgrid.CellID(c)).InUse()
			pu := p.Allocator(hexgrid.CellID(c)).InUse()
			if !reflect.DeepEqual(su, pu) {
				t.Errorf("shards=%d cell %d channel-use set diverged from serial", shards, c)
				break
			}
		}
	}
}

// TestRunParallelRejectsNegativeHandoff mirrors the serial validation:
// a negative rate is a spec bug, not "mobility off".
func TestRunParallelRejectsNegativeHandoff(t *testing.T) {
	_, _, newPar, _ := parFixture(t)
	_, err := traffic.Run(newPar(), traffic.Spec{
		Profile:     traffic.Uniform{PerCell: 0.001},
		MeanHold:    3000,
		Duration:    1000,
		HandoffRate: -0.0001,
		Seed:        1,
	})
	if err == nil || !strings.Contains(err.Error(), "HandoffRate") {
		t.Fatalf("want descriptive HandoffRate error, got %v", err)
	}
}

// TestRunParallelValidatesSpec: Run refuses an empty spec on a sharded
// driver.
func TestRunParallelValidatesSpec(t *testing.T) {
	_, _, newPar, _ := parFixture(t)
	if _, err := traffic.Run(newPar(), traffic.Spec{}); err == nil {
		t.Fatal("Run accepted an empty spec on a sharded driver")
	}
}
