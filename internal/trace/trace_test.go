package trace

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/raceflag"
)

func checkerFixture(t *testing.T) (*hexgrid.Grid, map[hexgrid.CellID]chanset.Set, *InterferenceChecker) {
	t.Helper()
	g, err := hexgrid.New(hexgrid.Config{Shape: hexgrid.Rect, Width: 6, Height: 6, ReuseDistance: 2})
	if err != nil {
		t.Fatal(err)
	}
	use := map[hexgrid.CellID]chanset.Set{}
	c := NewInterferenceChecker(g, func(id hexgrid.CellID) chanset.Set {
		if s, ok := use[id]; ok {
			return s
		}
		return chanset.Set{}
	})
	return g, use, c
}

func TestCheckerCleanGrid(t *testing.T) {
	_, use, c := checkerFixture(t)
	use[0] = chanset.SetOf(1)
	use[35] = chanset.SetOf(1) // far corner: outside reuse distance
	if err := c.CheckAll(); err != nil {
		t.Fatalf("clean grid flagged: %v", err)
	}
}

func TestCheckerDetectsViolation(t *testing.T) {
	g, use, c := checkerFixture(t)
	n := g.Interference(0)[0]
	use[0] = chanset.SetOf(7)
	use[n] = chanset.SetOf(7)
	if err := c.checkCell(0); err == nil {
		t.Fatal("violation missed by checkCell")
	}
	if err := c.CheckAll(); err == nil {
		t.Fatal("violation missed by CheckAll")
	}
	if !strings.Contains(c.checkCell(0).Error(), "{7}") {
		t.Errorf("error should name the channel: %v", c.checkCell(0))
	}
}

func TestCheckerDifferentChannelsOK(t *testing.T) {
	g, use, c := checkerFixture(t)
	n := g.Interference(0)[0]
	use[0] = chanset.SetOf(7)
	use[n] = chanset.SetOf(8)
	if err := c.CheckAll(); err != nil {
		t.Fatalf("disjoint channels flagged: %v", err)
	}
}

func TestHoldingsClashAndCheck(t *testing.T) {
	g, _, _ := checkerFixture(t)
	h := NewHoldings(g, 70)
	n := g.Interference(0)[2]
	h.Hold(0, 66) // the second word of a row
	h.Hold(35, 66)
	h.Hold(n, 7)
	if j, ok := h.Clash(n, 7); ok {
		t.Fatalf("cell %d clashes with %d over 7, a channel no neighbor holds", n, j)
	}
	if err := h.CheckAll(); err != nil {
		t.Fatalf("clean table flagged: %v", err)
	}
	h.Hold(n, 66)
	if j, ok := h.Clash(n, 66); !ok || j != 0 {
		t.Fatalf("Clash(%d, 66) = %d, %v; want cell 0", n, j, ok)
	}
	for name, err := range map[string]error{"CheckAll": h.CheckAll(), "Check of cell 0": h.Check([]hexgrid.CellID{0}), "Check of the later cell": h.Check([]hexgrid.CellID{35, n})} {
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("cells 0 and %d share {66}", n)) {
			t.Errorf("%s: %v, want cells 0 and %d sharing {66}", name, err, n)
		}
	}
	if err := h.Check([]hexgrid.CellID{1, 35}); err != nil {
		t.Errorf("cells outside the pair: %v", err)
	}
	h.Drop(n, 66)
	if err := h.CheckAll(); err != nil {
		t.Fatalf("after Drop: %v", err)
	}
	if got := h.Row(n); !got.Equal(chanset.SetOf(7)) {
		t.Errorf("Row(%d) = %v, want {7}", n, got)
	}
}

// TestHoldingsAllocatesNothing: keeping and checking the table allocates
// nothing short of a violation.
func TestHoldingsAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	g, _, _ := checkerFixture(t)
	h := NewHoldings(g, 70)
	if allocs := testing.AllocsPerRun(100, func() {
		for c := 0; c < g.NumCells(); c++ { // 36 cells, each on its own channel
			h.Hold(hexgrid.CellID(c), chanset.Channel(c))
		}
		if _, ok := h.Clash(3, 3); ok || h.CheckAll() != nil || h.Row(3).Empty() {
			t.Fatal("clean table flagged")
		}
		for c := 0; c < g.NumCells(); c++ {
			h.Drop(hexgrid.CellID(c), chanset.Channel(c))
		}
	}); allocs != 0 {
		t.Errorf("%.1f allocations per round, want 0", allocs)
	}
}

func TestWatchdogProgress(t *testing.T) {
	var w Watchdog
	w.Submitted(10)
	if w.Outstanding() != 1 {
		t.Fatal("outstanding should be 1")
	}
	if w.Stalled(15, 100) {
		t.Fatal("not stalled yet")
	}
	if !w.Stalled(200, 100) {
		t.Fatal("should be stalled after window with no progress")
	}
	w.Completed(205)
	if w.Stalled(290, 100) {
		t.Fatal("no outstanding work cannot stall")
	}
	if w.Completions() != 1 {
		t.Fatal("completions should be 1")
	}
}

func TestWatchdogResetOnNewWork(t *testing.T) {
	var w Watchdog
	w.Submitted(0)
	w.Completed(5)
	// Idle gap, then new work: the clock restarts at submit time.
	w.Submitted(1000)
	if w.Stalled(1050, 100) {
		t.Fatal("fresh work should not inherit the idle gap")
	}
	if !w.Stalled(1200, 100) {
		t.Fatal("should stall eventually")
	}
}

func TestEventKindStrings(t *testing.T) {
	for k, s := range map[EventKind]string{
		EvRequest: "request", EvGrant: "grant", EvDeny: "deny",
		EvRelease: "release", EvMode: "mode",
	} {
		if k.String() != s {
			t.Errorf("%d = %q, want %q", k, k.String(), s)
		}
	}
	if EventKind(99).String() == "" {
		t.Error("unknown kind should format")
	}
}

func TestRingEviction(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Add(Event{At: 0, Kind: EvGrant, Cell: hexgrid.CellID(i)})
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	ev := r.Events()
	if ev[0].Cell != 2 || ev[2].Cell != 4 {
		t.Fatalf("eviction order wrong: %v", ev)
	}
}

func TestRingPartial(t *testing.T) {
	r := NewRing(10)
	r.Add(Event{Cell: 1})
	r.Add(Event{Cell: 2})
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	ev := r.Events()
	if len(ev) != 2 || ev[0].Cell != 1 {
		t.Fatalf("events = %v", ev)
	}
}

func TestRingDump(t *testing.T) {
	r := NewRing(4)
	r.Add(Event{At: 5, Kind: EvDeny, Cell: 3, Ch: chanset.NoChannel, Info: 9})
	d := r.Dump()
	if !strings.Contains(d, "deny") || !strings.Contains(d, "info=9") {
		t.Errorf("Dump = %q", d)
	}
}

func TestRingBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRing(0)
}
