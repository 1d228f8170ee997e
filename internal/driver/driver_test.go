package driver_test

import (
	"strings"
	"testing"

	"repro/internal/baseline/fixed"
	"repro/internal/chanset"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/registry"
	"repro/internal/trace"
)

func fixture(t *testing.T, opts driver.Options) *driver.Sim {
	t.Helper()
	g, err := hexgrid.New(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	if err != nil {
		t.Fatal(err)
	}
	assign, err := chanset.Assign(g, 70)
	if err != nil {
		t.Fatal(err)
	}
	return driver.New(g, assign, fixed.NewFactory(assign), opts)
}

func TestDefaultsApplied(t *testing.T) {
	s := fixture(t, driver.Options{})
	if s.Latency() != 10 {
		t.Fatalf("default latency = %d", s.Latency())
	}
}

func TestRequestReleaseLifecycle(t *testing.T) {
	s := fixture(t, driver.Options{Seed: 1, TraceSize: 16})
	var res driver.Result
	id := s.Request(5, func(r driver.Result) { res = r })
	if id == 0 {
		t.Fatal("request ids start at 1")
	}
	s.Drain(1000)
	if !res.Granted || res.Cell != 5 {
		t.Fatalf("result: %+v", res)
	}
	if res.AcquisitionDelay() != 0 || res.TotalDelay() != 0 {
		t.Fatalf("fixed allocation should be instant: %+v", res)
	}
	s.Release(5, res.Ch)
	s.Drain(1000)
	ev := s.Trace()
	if len(ev) != 3 {
		t.Fatalf("trace has %d events, want request+grant+release", len(ev))
	}
	kinds := []trace.EventKind{trace.EvRequest, trace.EvGrant, trace.EvRelease}
	for i, k := range kinds {
		if ev[i].Kind != k {
			t.Fatalf("trace[%d] = %v, want %v", i, ev[i].Kind, k)
		}
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	s := fixture(t, driver.Options{})
	s.Request(0, nil)
	s.Drain(100)
	if s.Trace() != nil {
		t.Fatal("trace should be nil without TraceSize")
	}
}

func TestStatsAggregation(t *testing.T) {
	s := fixture(t, driver.Options{Seed: 2})
	cell := s.Grid().InteriorCell()
	prim := s.Assignment().Primary[cell].Len()
	for i := 0; i < prim+2; i++ {
		s.Request(cell, nil)
	}
	s.Drain(10000)
	st := s.Stats()
	if st.Grants != uint64(prim) || st.Denies != 2 {
		t.Fatalf("grants=%d denies=%d", st.Grants, st.Denies)
	}
	if got := st.BlockingProbability(); got != 2/float64(prim+2) {
		t.Fatalf("blocking = %v", got)
	}
	if st.MessagesPerRequest() != 0 {
		t.Fatal("fixed sends no messages")
	}
	if st.CellGrants[cell] != uint64(prim) || st.CellDenies[cell] != 2 {
		t.Fatalf("per-cell tallies wrong: %d/%d", st.CellGrants[cell], st.CellDenies[cell])
	}
	if st.Counters.GrantsLocal != uint64(prim) {
		t.Fatalf("counters: %+v", st.Counters)
	}
	if n := s.WarmStations(); n != 0 {
		t.Fatalf("%d fixed-allocation stations counted warm", n)
	}
}

// TestWarmStationsCensus: WarmStations counts the adaptive stations
// holding a borrowing block at read time. Local grants warm none; one cell
// borrowing past its primaries warms itself and the neighbors it asked,
// not the grid, and the serial and the sharded kernel agree.
func TestWarmStationsCensus(t *testing.T) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 12, Height: 12, ReuseDistance: 2, Wrap: true})
	assign := chanset.MustAssign(g, 35)
	cell := g.InteriorCell()
	census := func(s *driver.Sim) (local, borrowed int) {
		t.Helper()
		for _, c := range []hexgrid.CellID{0, cell} {
			s.Request(c, nil)
		}
		s.Drain(1_000_000)
		local = s.WarmStations()
		for i := 0; i < assign.Primary[cell].Len(); i++ {
			s.Request(cell, nil)
		}
		s.Drain(1_000_000)
		return local, s.WarmStations()
	}
	f, err := registry.Build("adaptive", g, assign, registry.Config{Latency: 10})
	if err != nil {
		t.Fatal(err)
	}
	local, borrowed := census(driver.New(g, assign, f, driver.Options{Seed: 5, Check: true}))
	if local != 0 || borrowed <= len(g.Interference(cell)) || borrowed == g.NumCells() {
		t.Fatalf("warm stations: %d after local grants, %d after one cell borrowed (%d neighbors, %d cells)", local, borrowed, len(g.Interference(cell)), g.NumCells())
	}
	f, err = registry.Build("adaptive", g, assign, registry.Config{Latency: 10})
	if err != nil {
		t.Fatal(err)
	}
	p, err := driver.NewParallel(g, assign, f, driver.ParallelOptions{Seed: 5, Check: true, Shards: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if l, b := census(p); l != local || b != borrowed {
		t.Fatalf("4 shards count %d and %d warm, the serial kernel %d and %d", l, b, local, borrowed)
	}
}

func TestEmptyStatsSafe(t *testing.T) {
	var st driver.Stats
	if st.BlockingProbability() != 0 || st.MessagesPerRequest() != 0 {
		t.Fatal("zero-request stats must not divide by zero")
	}
}

func TestWatchdogAndOutstanding(t *testing.T) {
	s := fixture(t, driver.Options{})
	if s.Outstanding() != 0 || s.Stalled(100) {
		t.Fatal("fresh sim must be idle")
	}
	s.Request(0, nil)
	s.Drain(1000)
	if s.Outstanding() != 0 {
		t.Fatal("fixed requests complete synchronously")
	}
}

func TestModeOccupancyAllLocal(t *testing.T) {
	s := fixture(t, driver.Options{})
	occ := s.ModeOccupancy()
	if occ[0] != 1 || occ[1]+occ[2]+occ[3] != 0 {
		t.Fatalf("occupancy = %v", occ)
	}
}

func TestCheckInvariantCleanAndViolation(t *testing.T) {
	s := fixture(t, driver.Options{Seed: 3})
	s.Request(0, nil)
	s.Drain(100)
	if err := s.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseUnheldPanics(t *testing.T) {
	s := fixture(t, driver.Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Release(0, 5)
}

func TestJitterOptionStillSafe(t *testing.T) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	assign := chanset.MustAssign(g, 35)
	f, err := registry.Build("adaptive", g, assign, registry.Config{Latency: 10})
	if err != nil {
		t.Fatal(err)
	}
	s := driver.New(g, assign, f, driver.Options{Latency: 10, Jitter: 7, Seed: 4, Check: true})
	cell := g.InteriorCell()
	done := 0
	for i := 0; i < 8; i++ {
		s.Request(cell, func(driver.Result) { done++ })
		s.Request(g.Interference(cell)[i], func(driver.Result) { done++ })
	}
	if !s.Drain(5_000_000) {
		t.Fatal("no quiescence with jitter")
	}
	if done != 16 {
		t.Fatalf("completed %d of 16", done)
	}
	if err := s.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocatorAccessor(t *testing.T) {
	s := fixture(t, driver.Options{})
	if s.Allocator(3) == nil {
		t.Fatal("allocator accessor broken")
	}
	if !s.Allocator(3).InUse().Empty() {
		t.Fatal("fresh allocator should be idle")
	}
}

func TestResultStringsViaTraceDump(t *testing.T) {
	s := fixture(t, driver.Options{TraceSize: 8})
	s.Request(1, nil)
	s.Drain(100)
	var b strings.Builder
	for _, e := range s.Trace() {
		b.WriteString(e.String())
	}
	if !strings.Contains(b.String(), "grant") {
		t.Fatalf("trace dump: %s", b.String())
	}
}
