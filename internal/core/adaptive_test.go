package core_test

import (
	"testing"

	"repro/internal/chanset"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/sim"
)

// newSim builds a wired adaptive scenario for tests.
func newSim(t *testing.T, gcfg hexgrid.Config, channels int, opts driver.Options, params *core.Params) *driver.Sim {
	t.Helper()
	g, err := hexgrid.New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := chanset.Assign(g, channels)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Latency == 0 {
		opts.Latency = 10
	}
	opts.Check = true
	p := core.DefaultParams(opts.Latency)
	if params != nil {
		p = *params
	}
	f, err := core.NewFactory(g, assign, p)
	if err != nil {
		t.Fatal(err)
	}
	return driver.New(g, assign, f, opts)
}

func smallGrid() hexgrid.Config {
	return hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true}
}

func TestLocalGrantImmediateZeroMessages(t *testing.T) {
	s := newSim(t, smallGrid(), 70, driver.Options{Seed: 1}, nil)
	var got driver.Result
	s.Request(3, func(r driver.Result) { got = r })
	s.Drain(1000)
	if !got.Granted {
		t.Fatal("local request should be granted")
	}
	if got.AcquisitionDelay() != 0 {
		t.Fatalf("local acquisition delay = %d, want 0", got.AcquisitionDelay())
	}
	if !s.Assignment().Primary[3].Contains(got.Ch) {
		t.Fatalf("granted channel %d is not one of cell 3's primaries", got.Ch)
	}
	st := s.Stats()
	if st.Messages.Total != 0 {
		t.Fatalf("local grant cost %d messages, want 0 (Table 2 adaptive row)", st.Messages.Total)
	}
	if st.Counters.GrantsLocal != 1 {
		t.Fatalf("counters: %+v", st.Counters)
	}
}

func TestReleaseThenReuse(t *testing.T) {
	s := newSim(t, smallGrid(), 70, driver.Options{Seed: 2}, nil)
	var first driver.Result
	s.Request(0, func(r driver.Result) { first = r })
	s.Drain(1000)
	s.Release(0, first.Ch)
	var second driver.Result
	s.Request(0, func(r driver.Result) { second = r })
	s.Drain(1000)
	if !second.Granted || second.Ch != first.Ch {
		t.Fatalf("released channel should be reusable: first=%d second=%d", first.Ch, second.Ch)
	}
}

func TestExhaustPrimariesThenBorrow(t *testing.T) {
	s := newSim(t, smallGrid(), 70, driver.Options{Seed: 3}, nil)
	cell := s.Grid().InteriorCell()
	primaries := s.Assignment().Primary[cell].Len()
	granted := 0
	var results []driver.Result
	// Ask for twice the primaries; the surplus must be borrowed.
	want := 2 * primaries
	for i := 0; i < want; i++ {
		s.Request(cell, func(r driver.Result) {
			if r.Granted {
				granted++
			}
			results = append(results, r)
		})
	}
	s.Drain(2_000_000)
	if s.Outstanding() != 0 {
		t.Fatalf("%d requests never completed", s.Outstanding())
	}
	if granted != want {
		t.Fatalf("granted %d of %d (idle neighborhood has plenty of channels)", granted, want)
	}
	if err := s.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Counters.GrantsLocal < uint64(primaries) {
		t.Errorf("expected at least %d local grants, got %d", primaries, st.Counters.GrantsLocal)
	}
	borrowed := st.Counters.GrantsUpdate + st.Counters.GrantsSearch
	if borrowed == 0 {
		t.Error("expected some borrowed grants")
	}
	if st.Messages.Total == 0 {
		t.Error("borrowing must cost messages")
	}
	// All channels granted must be distinct while held.
	held := chanset.Set{}
	for _, r := range results {
		if held.Contains(r.Ch) {
			t.Fatalf("channel %d granted twice concurrently at one cell", r.Ch)
		}
		held.Add(r.Ch)
	}
}

func TestDeniedWhenRegionExhausted(t *testing.T) {
	// One isolated cell with a tiny spectrum: all channels are primary.
	// After they run out, requests must be denied, not wedged.
	s := newSim(t, hexgrid.Config{Shape: hexgrid.Hexagon, Radius: 0, ReuseDistance: 1}, 3,
		driver.Options{Seed: 4}, nil)
	outcomes := make([]bool, 0, 5)
	for i := 0; i < 5; i++ {
		s.Request(0, func(r driver.Result) { outcomes = append(outcomes, r.Granted) })
	}
	s.Drain(100000)
	if len(outcomes) != 5 {
		t.Fatalf("completed %d of 5", len(outcomes))
	}
	grants := 0
	for _, ok := range outcomes {
		if ok {
			grants++
		}
	}
	if grants != 3 {
		t.Fatalf("granted %d of 3 channels", grants)
	}
	st := s.Stats()
	if st.Denies != 2 || st.Counters.Drops != 2 {
		t.Fatalf("denies=%d drops=%d, want 2/2", st.Denies, st.Counters.Drops)
	}
}

func TestSaturatedRegionDropsNotWedges(t *testing.T) {
	// Saturate an entire interference neighborhood far beyond the
	// spectrum; every request must complete (grant or deny).
	s := newSim(t, smallGrid(), 21, driver.Options{Seed: 5}, nil)
	cell := s.Grid().InteriorCell()
	targets := append([]hexgrid.CellID{cell}, s.Grid().Interference(cell)...)
	total := 0
	completed := 0
	for round := 0; round < 4; round++ {
		for _, c := range targets {
			total++
			s.Request(c, func(driver.Result) { completed++ })
		}
	}
	if !s.Drain(10_000_000) {
		t.Fatal("simulation did not quiesce")
	}
	if completed != total {
		t.Fatalf("completed %d of %d — deadlock (Theorem 2 violated)", completed, total)
	}
	if err := s.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Grants == 0 || st.Denies == 0 {
		t.Fatalf("expected a mix of grants and denies at saturation: %+v", st)
	}
}

func TestConcurrentNeighborsNoInterference(t *testing.T) {
	// Two adjacent cells hammer requests simultaneously; Theorem 1 must
	// hold throughout (the driver checks on every grant).
	s := newSim(t, smallGrid(), 35, driver.Options{Seed: 6}, nil)
	a := s.Grid().InteriorCell()
	b := s.Grid().Interference(a)[0]
	for i := 0; i < 12; i++ {
		s.Request(a, nil)
		s.Request(b, nil)
	}
	if !s.Drain(5_000_000) {
		t.Fatal("no quiescence")
	}
	if s.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", s.Outstanding())
	}
	if err := s.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestSearchFindsChannelWhenAvailable(t *testing.T) {
	// α = 0 forces every borrow through the search path; the paper's
	// claim is that a search finds a channel whenever one is free.
	p := core.DefaultParams(10)
	p.Alpha = 0
	s := newSim(t, smallGrid(), 70, driver.Options{Seed: 7}, &p)
	cell := s.Grid().InteriorCell()
	primaries := s.Assignment().Primary[cell].Len()
	granted := 0
	want := primaries + 5
	for i := 0; i < want; i++ {
		s.Request(cell, func(r driver.Result) {
			if r.Granted {
				granted++
			}
		})
	}
	s.Drain(5_000_000)
	if granted != want {
		t.Fatalf("granted %d of %d with idle neighbors", granted, want)
	}
	st := s.Stats()
	if st.Counters.GrantsSearch == 0 {
		t.Error("expected search grants with α=0")
	}
	if st.Counters.GrantsUpdate != 0 {
		t.Errorf("α=0 must not produce update grants, got %d", st.Counters.GrantsUpdate)
	}
}

func TestAlphaBoundsUpdateAttempts(t *testing.T) {
	p := core.DefaultParams(10)
	p.Alpha = 2
	s := newSim(t, smallGrid(), 21, driver.Options{Seed: 8}, &p)
	cell := s.Grid().InteriorCell()
	for _, c := range append([]hexgrid.CellID{cell}, s.Grid().Interference(cell)...) {
		for i := 0; i < 3; i++ {
			s.Request(c, nil)
		}
	}
	s.Drain(10_000_000)
	st := s.Stats()
	attempts := st.Counters.UpdateAttempts
	completions := st.Grants + st.Denies
	if attempts > completions*uint64(p.Alpha) {
		t.Fatalf("update attempts %d exceed α-bound %d", attempts, completions*uint64(p.Alpha))
	}
}

func TestModeReturnsToLocalAfterLoadSubsides(t *testing.T) {
	s := newSim(t, smallGrid(), 70, driver.Options{Seed: 9}, nil)
	cell := s.Grid().InteriorCell()
	n := s.Assignment().Primary[cell].Len() + 2
	var held []chanset.Channel
	for i := 0; i < n; i++ {
		s.Request(cell, func(r driver.Result) {
			if r.Granted {
				held = append(held, r.Ch)
			}
		})
	}
	s.Drain(5_000_000)
	if got := s.Allocator(cell).Mode(); got == core.ModeLocal {
		t.Fatalf("cell with exhausted primaries should be borrowing, mode=%d", got)
	}
	// Release everything slowly so the NFC predictor sees recovery.
	e := s.Engine()
	for i, ch := range held {
		ch := ch
		e.After(sim.Time(1000+500*i), func() { s.Release(cell, ch) })
	}
	s.Drain(10_000_000)
	// Trigger a final mode check with one more (cheap) request/release.
	s.Request(cell, func(r driver.Result) {
		if r.Granted {
			s.Release(cell, r.Ch)
		}
	})
	s.Drain(5_000_000)
	if got := s.Allocator(cell).Mode(); got != core.ModeLocal {
		t.Fatalf("cell should have returned to local mode, mode=%d", got)
	}
}

func TestParamsValidate(t *testing.T) {
	good := core.DefaultParams(10)
	if err := good.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	// DefaultParams must stay valid for degenerate latencies: Window=0
	// would reach the NFC predictor's division.
	for _, latency := range []sim.Time{0, -5, 1} {
		if err := core.DefaultParams(latency).Validate(); err != nil {
			t.Errorf("DefaultParams(%d) invalid: %v", latency, err)
		}
	}
	bad := []core.Params{
		{ThetaLow: 0, ThetaHigh: 3, Alpha: 1, Window: 10},
		{ThetaLow: 3, ThetaHigh: 2, Alpha: 1, Window: 10},
		{ThetaLow: 1, ThetaHigh: 3, Alpha: -1, Window: 10},
		{ThetaLow: 1, ThetaHigh: 3, Alpha: 1, Window: 0},
		{ThetaLow: 1, ThetaHigh: 3, Alpha: 1, Window: -10},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d should fail: %+v", i, p)
		}
	}
	if _, err := core.NewFactory(nil, nil, bad[0]); err == nil {
		t.Error("NewFactory must reject bad params")
	}
}

func TestFactoryName(t *testing.T) {
	g := hexgrid.MustNew(smallGrid())
	f, err := core.NewFactory(g, chanset.MustAssign(g, 70), core.DefaultParams(10))
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "adaptive" {
		t.Fatalf("Name = %q", f.Name())
	}
}
