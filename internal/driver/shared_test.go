package driver_test

import (
	"fmt"
	"testing"

	"repro/internal/chanset"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// warmToy is the benchmark's steady-sharded workload at its toy size: a
// warm-started 12x12 grid at 9 Erlang with five radius-2 hot zones at
// 13.5, truncated 100 ticks after the arrivals stop. At t = 0 most cells
// change mode at once and every station answers its whole neighbourhood
// with its Use_i: the burst that snapshot sharing exists for.
func warmToy(t *testing.T) (*hexgrid.Grid, *chanset.Assignment, traffic.Spec) {
	t.Helper()
	const w, h, duration = 12, 12, 300
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: w, Height: h, ReuseDistance: 2, Wrap: true})
	ps := traffic.ProfileSpec{BaseRate: 9.0 / 3000}
	for _, c := range [][2]int{{w / 4, h / 4}, {3 * w / 4, h / 4}, {w / 4, 3 * h / 4}, {3 * w / 4, 3 * h / 4}, {w / 2, h / 2}} {
		ps.Phases = append(ps.Phases, traffic.PhaseSpec{
			Center: hexgrid.CellID(c[1]*w + c[0]), Radius: 2, Rate: 13.5 / 3000, Start: 0, End: duration + 1,
		})
	}
	profile, err := traffic.BuildProfile(g, ps)
	if err != nil {
		t.Fatal(err)
	}
	return g, chanset.MustAssign(g, 70), traffic.Spec{
		Profile: profile, MeanHold: 3000, Duration: duration, Warmup: 60, Seed: 101, WarmStart: true, DrainHorizon: 100,
	}
}

// TestSharedSnapshotsWarmStart: storing a repeated Use snapshot once
// changes nothing a run leaves behind — Stats, traffic.Stats, Trace() and
// every cell's InUse hash to what they did at the commit before
// attachments were shared, on the serial driver and sharded at 1 and 4
// shards — while the attachment tables stay within one slot per (cell,
// destination shard), which they exceed several times over the moment
// sharing stops matching. The run ends in a forced quiesce that cancels
// requests: as many on every driver, and none left in the gauge.
func TestSharedSnapshotsWarmStart(t *testing.T) {
	g, assign, spec := warmToy(t)
	f, err := registry.Build("adaptive", g, assign, registry.Config{Latency: 10})
	if err != nil {
		t.Fatal(err)
	}
	// budget is one attachment slot per cell and shard its neighbourhood
	// (itself included) reaches.
	budget := func(shardOf func(hexgrid.CellID) int) int {
		n := 0
		for c := 0; c < g.NumCells(); c++ {
			reached := map[int]bool{shardOf(hexgrid.CellID(c)): true}
			for _, nb := range g.Interference(hexgrid.CellID(c)) {
				reached[shardOf(nb)] = true
			}
			n += len(reached)
		}
		return n
	}
	// check holds the arena to the budget. Its capacity is what Footprint
	// reports, and a table of less than a page doubles, so capacity is
	// under twice the peak of slots in use.
	check := func(name string, fp sim.Footprint, budget int) {
		t.Helper()
		slotBytes := uint64(8 * (2 + len(assign.Spectrum.Words())))
		if slots := fp.AttBytes / slotBytes; slots == 0 || slots >= 2*uint64(budget) {
			t.Errorf("%s: attachment arenas grew to %d slots, budget %d (one per cell and destination shard)", name, slots, budget)
		}
		if total := fp.AttParked + fp.AttShared; fp.AttShared*2 < total {
			t.Errorf("%s: %d of %d snapshots shared a stored one, want most", name, fp.AttShared, total)
		}
	}

	// cancelled is how many requests the forced quiesce at the cutoff
	// withdrew: those the trace saw submitted and never completed. They
	// must have left the outstanding gauge too.
	cancelled := func(name string, o mcOutcome, reg *obs.Registry) int {
		t.Helper()
		n := -int(o.Stats.Grants + o.Stats.Denies)
		for _, e := range o.Trace {
			if e.Kind == trace.EvRequest {
				n++
			}
		}
		if got := reg.Snapshot()["adca_requests_outstanding"]; n <= 0 || got != 0 {
			t.Errorf("%s: %d requests cancelled at the cutoff, outstanding gauge %v after it", name, n, got)
		}
		return n
	}

	reg := obs.New()
	s := driver.New(g, assign, f, driver.Options{Latency: 10, Seed: 101, Check: true, TraceSize: 1 << 16, Obs: reg})
	ts, err := traffic.Run(s, spec)
	serial := mcCollect(t, g, s, ts, err)
	want := cancelled("serial", serial, reg)
	if c := serial.Stats.Counters; c.ModeChanges < uint64(g.NumCells())/2 || c.GrantsUpdate+c.GrantsSearch == 0 {
		t.Fatalf("the scenario has no mode-change burst or no borrowing: %+v", c)
	}
	if got, want := serial.hash(), "e0859e29ef845b5b"; got != want {
		t.Errorf("serial outcome hashes %q, want %q as before attachments were shared", got, want)
	}
	check("serial", s.Engine().Footprint(), budget(func(hexgrid.CellID) int { return 0 }))

	for _, shards := range []int{1, 4} {
		reg := obs.New()
		p, err := driver.NewParallel(g, assign, f, driver.ParallelOptions{Latency: 10, Seed: 101, Check: true, TraceSize: 1 << 16, Shards: shards, Workers: 2, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		ts, err := traffic.RunParallel(p, spec)
		sharded := mcCollect(t, g, p, ts, err)
		if got := cancelled(fmt.Sprintf("%d shards", shards), sharded, reg); got != want {
			t.Errorf("%d shards: %d requests cancelled at the cutoff, %d serially", shards, got, want)
		}
		if got, want := sharded.hash(), "ac4a909f3931a87a"; got != want {
			t.Errorf("%d shards: outcome hashes %q, want %q as before attachments were shared", shards, got, want)
		}
		check(fmt.Sprintf("%d shards", shards), p.Kernel().Footprint(), budget(p.ShardOf))
	}
}
