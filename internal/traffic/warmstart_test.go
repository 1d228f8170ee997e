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
	"repro/internal/traffic"
)

// warmSpec is the shared warm-start workload: 9 Erlang per cell —
// right at the 10-primary capacity of the 7x7 reuse-2 grid — with a
// 14-Erlang hot zone so seeded cells overflow their primaries and the
// pre-run seeds resolve through the borrow protocol, plus mobility so
// warm calls also exercise the handoff path.
func warmSpec(g *hexgrid.Grid) traffic.Spec {
	return traffic.Spec{
		Profile:     traffic.NewHotspot(g, g.InteriorCell(), 1, 9.0/3000, 14.0/3000),
		MeanHold:    3000,
		HandoffRate: 0.0005,
		Duration:    4_000,
		Warmup:      500,
		Seed:        7,
		WarmStart:   true,
	}
}

// primedState is what PrimeParallel leaves behind before any window
// runs: what the kernel queues and has parked, the events pending and
// the requests in flight per shard. Seeding on the shard workers must
// leave the same at any worker count.
type primedState struct {
	records, events, poolOut int
	attParked, attShared     uint64
	pending                  int
	outstanding              []int
}

func runWarmParallel(t *testing.T, scheme string, g *hexgrid.Grid, assign *chanset.Assignment, shards, workers int) (mobileOutcome, primedState) {
	t.Helper()
	factory, err := registry.Build(scheme, g, assign, registry.Config{Latency: 10})
	if err != nil {
		t.Fatal(err)
	}
	p, err := driver.NewParallel(g, assign, factory, driver.ParallelOptions{
		Latency: 10, Seed: 7, Shards: shards, Workers: workers, TraceSize: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := traffic.PrimeParallel(p, warmSpec(g))
	if err != nil {
		t.Fatal(err)
	}
	f := p.Kernel().Footprint()
	primed := primedState{
		records: f.Records, events: f.Events, poolOut: f.PoolOut,
		attParked: f.AttParked, attShared: f.AttShared,
		pending: p.Pending(), outstanding: p.ShardOutstanding(),
	}
	ts, err := r.Finish()
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
	return mobileOutcome{stats: p.Stats(), traffic: ts, trace: p.Trace(), use: use}, primed
}

// TestRunParallelWarmStartDeterminism is the acceptance gate for
// warm-start seeding on the sharded kernel, for every registered scheme:
// the seeded trajectory — telephony stats, driver stats, merged trace
// and final channel-use sets — must be bit-identical across worker
// counts 1/2/4/NumCPU and shard counts 1/2/7/16. Seeding draws come from
// per-cell substreams, each shard's tile is seeded in cell order on the
// worker that runs its windows, and pre-run grant resolution follows the
// kernel's canonical (time, origin, counter) order, so neither the
// partition nor worker scheduling can perturb it. The state seeding
// leaves before the first window — the kernel's footprint, the events
// pending, the requests in flight per shard — must be the same at every
// worker count too.
func TestRunParallelWarmStartDeterminism(t *testing.T) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	assign := chanset.MustAssign(g, 70)
	for _, scheme := range registry.Names() {
		t.Run(scheme, func(t *testing.T) {
			base, _ := runWarmParallel(t, scheme, g, assign, 7, 1)
			if scheme == "adaptive" && base.stats.Counters.UpdateAttempts == 0 && base.stats.Counters.GrantsSearch == 0 {
				t.Fatalf("warm-started workload never borrowed — too tame to gate: %+v", base.stats.Counters)
			}
			for _, sh := range []int{1, 2, 7, 16} {
				var primed1 primedState
				for _, wk := range []int{1, 2, 4, runtime.NumCPU()} {
					got, primed := runWarmParallel(t, scheme, g, assign, sh, wk)
					if wk == 1 {
						primed1 = primed
					} else if !reflect.DeepEqual(primed, primed1) {
						t.Errorf("shards=%d workers=%d primed state diverged from workers=1:\n got %+v\nwant %+v", sh, wk, primed, primed1)
					}
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
		})
	}
}

// TestRunParallelWarmStartMatchesSerial pins the serial engine to the
// same warm-started trajectory: equal telephony stats, equal integer
// driver tallies and equal final channel-use sets (floating-point delay
// aggregates are merge-order-sensitive and excluded, as in the mobility
// equivalence test).
func TestRunParallelWarmStartMatchesSerial(t *testing.T) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	assign := chanset.MustAssign(g, 70)
	factory, err := registry.Build("adaptive", g, assign, registry.Config{Latency: 10})
	if err != nil {
		t.Fatal(err)
	}
	spec := warmSpec(g)
	s := driver.New(g, assign, factory, driver.Options{Latency: 10, Seed: 7})
	serialTS, err := traffic.Run(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	serialST := s.Stats()
	for _, shards := range []int{1, 7, 16} {
		p, err := driver.NewParallel(g, assign, factory, driver.ParallelOptions{
			Latency: 10, Seed: 7, Shards: shards,
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

// TestRunParallelWarmStartOccupancy checks that seeding alone — no
// simulated ticks — puts the grid at its stationary occupancy: after
// PrimeParallel the clock is still 0 and ActiveCalls is within Poisson
// noise of offered-load × cells, capped by the cells' primary
// allocations.
func TestRunParallelWarmStartOccupancy(t *testing.T) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	assign := chanset.MustAssign(g, 70)
	factory, err := registry.Build("adaptive", g, assign, registry.Config{Latency: 10})
	if err != nil {
		t.Fatal(err)
	}
	p, err := driver.NewParallel(g, assign, factory, driver.ParallelOptions{
		Latency: 10, Seed: 7, Shards: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := warmSpec(g)
	run, err := traffic.PrimeParallel(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	if now := p.Now(0); now != 0 {
		t.Fatalf("priming advanced the clock to %d", now)
	}
	active := p.ActiveCalls()
	var capacity uint64
	for c := 0; c < g.NumCells(); c++ {
		capacity += uint64(assign.Primary[hexgrid.CellID(c)].Len())
	}
	// 49 cells at ~9 Erlang → ~441 expected; only primaries grant
	// synchronously pre-run (σ ≈ 21, hot-cell overflow defers to the
	// borrow protocol), so demand a clear majority of capacity.
	if active < capacity*6/10 || active > capacity {
		t.Fatalf("warm-start active calls = %d, want within [%d, %d]", active, capacity*6/10, capacity)
	}
	if _, err := run.Finish(); err != nil {
		t.Fatal(err)
	}
	if p.ActiveCalls() != 0 {
		t.Fatalf("%d calls still active after drain", p.ActiveCalls())
	}
}

// TestRunParallelRejectsBadWarmup pins the validation bugfix on both
// drivers: a negative warmup and a warmup that outlives the arrival
// window are spec bugs, not measurement choices.
func TestRunParallelRejectsBadWarmup(t *testing.T) {
	_, _, newPar, s := parFixture(t)
	neg := traffic.Spec{
		Profile: traffic.Uniform{PerCell: 0.001}, MeanHold: 3000,
		Duration: 1000, Warmup: -1, Seed: 1,
	}
	late := traffic.Spec{
		Profile: traffic.Uniform{PerCell: 0.001}, MeanHold: 3000,
		Duration: 1000, Warmup: 1000, Seed: 1,
	}
	for name, spec := range map[string]traffic.Spec{"negative": neg, "late": late} {
		if _, err := traffic.Run(newPar(), spec); err == nil || !strings.Contains(err.Error(), "Warmup") {
			t.Errorf("parallel %s warmup: want descriptive Warmup error, got %v", name, err)
		}
		if _, err := traffic.Run(s, spec); err == nil || !strings.Contains(err.Error(), "Warmup") {
			t.Errorf("serial %s warmup: want descriptive Warmup error, got %v", name, err)
		}
	}
}
