package sim_test

import (
	"reflect"
	"testing"

	"repro/internal/chanset"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// TestWarmStartOnPoisonedPages: a sharded warm-start run — the burst
// that takes every heap through the pool, the borrow traffic that fills
// the mailboxes, the truncated drain and the forced quiesce that hand
// the pages back — comes out the same, statistic for statistic, when
// every page returned to the pool is overwritten with records due at -1
// (see TestRecycledPagesAreWrittenBeforeRead for the kernel's own
// suites under the same hook).
func TestWarmStartOnPoisonedPages(t *testing.T) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 36, Height: 36, ReuseDistance: 2, Wrap: true})
	assign := chanset.MustAssign(g, 70)
	run := func() (driver.Stats, traffic.Stats, sim.Footprint) {
		factory, err := registry.Build("adaptive", g, assign, registry.Config{Latency: 10})
		if err != nil {
			t.Fatal(err)
		}
		p, err := driver.NewParallel(g, assign, factory, driver.ParallelOptions{Latency: 10, Seed: 5, Shards: 4, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		ts, err := traffic.RunParallel(p, traffic.Spec{
			Profile:  traffic.NewHotspot(g, g.InteriorCell(), 2, 9.0/3000, 13.5/3000),
			MeanHold: 3000, Duration: 1500, Warmup: 200, Seed: 5,
			WarmStart: true, DrainHorizon: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.CheckInvariant(); err != nil {
			t.Fatal(err)
		}
		return p.Stats(), ts, p.Footprint()
	}
	ds, ts, fp := run()
	if fp.PoolPages < 8 || fp.PoolOut != 0 || ds.Counters.UpdateAttempts == 0 {
		t.Fatalf("the run is too small to recycle pages or too tame to cross shards: pool %d pages, %d out, %d update attempts", fp.PoolPages, fp.PoolOut, ds.Counters.UpdateAttempts)
	}
	sim.PoisonPages(t)
	pds, pts, pfp := run()
	if !reflect.DeepEqual(pds, ds) || !reflect.DeepEqual(pts, ts) {
		t.Fatalf("the poisoned run differs:\n%+v\n%+v\nclean:\n%+v\n%+v", pds, pts, ds, ts)
	}
	pfp.PoolPages, pfp.PoolBytes = fp.PoolPages, fp.PoolBytes // the high-water mark depends on worker timing
	if pfp != fp {
		t.Fatalf("kernel footprint on poisoned pages %+v, on clean ones %+v", pfp, fp)
	}
}
