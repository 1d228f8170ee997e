package hexgrid

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/raceflag"
)

// TestSlotMatchesSearch: for every pair of cells, and for ids that name
// no cell, Slot gives what a binary search of the receiver's list gives
// — on wrapped grids of sides exactly 2D+1, just above it and large, an
// unwrapped one, and the grids Slot searches: lists longer than its
// table's index type, and a Hexagon grid.
func TestSlotMatchesSearch(t *testing.T) {
	var cfgs []Config
	for _, side := range []int{7, 8, 12, 60} {
		for d := 1; d <= 3; d++ {
			cfgs = append(cfgs, Config{Shape: Rect, Width: side, Height: side, ReuseDistance: d, Wrap: true})
		}
	}
	cfgs = append(cfgs,
		Config{Shape: Rect, Width: 300, Height: 300, ReuseDistance: 2, Wrap: true},
		Config{Shape: Rect, Width: 12, Height: 9, ReuseDistance: 2},
		Config{Shape: Rect, Width: 5, Height: 5, ReuseDistance: 2, Wrap: true},
		Config{Shape: Rect, Width: 16, Height: 16, ReuseDistance: 7, Wrap: true}, // 168 neighbors: searched
		Config{Shape: Hexagon, Radius: 4, ReuseDistance: 2},
	)
	for _, cfg := range cfgs {
		g := MustNew(cfg)
		name := fmt.Sprintf("%v %dx%d r%d D=%d wrap=%v", cfg.Shape, cfg.Width, cfg.Height, cfg.Radius, cfg.ReuseDistance, cfg.Wrap)
		n := g.NumCells()
		// At 300x300 every receiver against every sender is 8.1e9 pairs:
		// take the receivers within D+1 of a corner on both axes, which
		// cover every class, and a stride through the rest, against
		// every sender.
		nearSeam := func(x, side int) bool {
			return x <= cfg.ReuseDistance+1 || x >= side-cfg.ReuseDistance-2
		}
		for c := 0; c < n; c++ {
			if n > 10_000 && c%997 != 0 && !(nearSeam(c%cfg.Width, cfg.Width) && nearSeam(c/cfg.Width, cfg.Height)) {
				continue
			}
			nbrs := g.Interference(CellID(c))
			for _, j := range []CellID{-1, CellID(n), math.MaxInt32} {
				if k := g.Slot(CellID(c), j); k != -1 {
					t.Fatalf("%s: Slot(%d, %d) = %d, want -1", name, c, j, k)
				}
			}
			for j := 0; j < n; j++ {
				want := -1
				if k, ok := slices.BinarySearch(nbrs, CellID(j)); ok {
					want = k
				}
				if k := g.Slot(CellID(c), CellID(j)); k != want {
					t.Fatalf("%s: Slot(%d, %d) = %d, want %d", name, c, j, k, want)
				}
			}
		}
	}
}

// TestSlotAllocatesNothing: a lookup allocates nothing, from the table
// or by search.
func TestSlotAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	for _, g := range []*Grid{
		MustNew(Config{Shape: Rect, Width: 12, Height: 12, ReuseDistance: 2, Wrap: true}),
		MustNew(Config{Shape: Hexagon, Radius: 3, ReuseDistance: 2}),
	} {
		c := g.InteriorCell()
		j := g.Interference(c)[3]
		if allocs := testing.AllocsPerRun(100, func() {
			if g.Slot(c, j) != 3 || g.Slot(c, c) != -1 {
				t.Fatal("wrong slot")
			}
		}); allocs != 0 {
			t.Errorf("%v: %.1f allocations per lookup, want 0", g.Config().Shape, allocs)
		}
	}
}
