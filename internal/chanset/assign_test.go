package chanset

import (
	"testing"

	"repro/internal/hexgrid"
	"repro/internal/raceflag"
)

func testGrid(t *testing.T, cfg hexgrid.Config) *hexgrid.Grid {
	t.Helper()
	g, err := hexgrid.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAssignVerifies(t *testing.T) {
	cases := []hexgrid.Config{
		{Shape: hexgrid.Rect, Width: 8, Height: 8, ReuseDistance: 1},
		{Shape: hexgrid.Rect, Width: 8, Height: 8, ReuseDistance: 2},
		{Shape: hexgrid.Rect, Width: 10, Height: 7, ReuseDistance: 3},
		{Shape: hexgrid.Rect, Width: 9, Height: 9, ReuseDistance: 2, Wrap: true},
		{Shape: hexgrid.Hexagon, Radius: 4, ReuseDistance: 2},
	}
	for _, cfg := range cases {
		g := testGrid(t, cfg)
		a, err := Assign(g, 70)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if err := a.Verify(g); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
	}
}

func TestAssignClusterSizeReuse1(t *testing.T) {
	// Reuse distance 1 needs only 3 colors on the hex lattice (wrapped
	// grid with dims divisible by 3 avoids boundary effects).
	g := testGrid(t, hexgrid.Config{Shape: hexgrid.Rect, Width: 9, Height: 9, ReuseDistance: 1, Wrap: true})
	a := MustAssign(g, 30)
	if a.NumColors != 3 {
		t.Fatalf("NumColors = %d, want 3", a.NumColors)
	}
}

func TestAssignClusterSizeReuse2(t *testing.T) {
	// Reuse distance 2 on the hex lattice requires 7 colors (the classic
	// 7-cell cluster); greedy may use a few more on awkward wrap sizes,
	// but on a 7-multiple wrapped grid the lattice coloring exists.
	g := testGrid(t, hexgrid.Config{Shape: hexgrid.Rect, Width: 14, Height: 14, ReuseDistance: 2, Wrap: true})
	a := MustAssign(g, 70)
	if a.NumColors < 7 {
		t.Fatalf("NumColors = %d: below the chromatic lower bound 7", a.NumColors)
	}
	if a.NumColors > 9 {
		t.Fatalf("NumColors = %d: greedy coloring unexpectedly bad", a.NumColors)
	}
}

func TestAssignSpectrumPartitionBalance(t *testing.T) {
	g := testGrid(t, hexgrid.Config{Shape: hexgrid.Rect, Width: 9, Height: 9, ReuseDistance: 1, Wrap: true})
	a := MustAssign(g, 31)
	min, max := a.NumChannels, 0
	counts := map[int]int{}
	for i := 0; i < g.NumCells(); i++ {
		n := a.Primary[i].Len()
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
		counts[a.Color[i]] = n
	}
	if max-min > 1 {
		t.Fatalf("primary set sizes unbalanced: min=%d max=%d", min, max)
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != 31 {
		t.Fatalf("spectrum not partitioned: groups sum to %d, want 31", total)
	}
}

func TestAssignSameColorSamePrimaries(t *testing.T) {
	g := testGrid(t, hexgrid.Config{Shape: hexgrid.Rect, Width: 8, Height: 8, ReuseDistance: 2})
	a := MustAssign(g, 56)
	for i := 0; i < g.NumCells(); i++ {
		for j := i + 1; j < g.NumCells(); j++ {
			if a.Color[i] == a.Color[j] && !a.Primary[i].Equal(a.Primary[j]) {
				t.Fatalf("cells %d,%d share color %d but differ in primaries", i, j, a.Color[i])
			}
		}
	}
}

func TestAssignErrors(t *testing.T) {
	g := testGrid(t, hexgrid.Config{Shape: hexgrid.Rect, Width: 8, Height: 8, ReuseDistance: 2})
	if _, err := Assign(g, 0); err == nil {
		t.Error("expected error for 0 channels")
	}
	if _, err := Assign(g, 3); err == nil {
		t.Error("expected error for fewer channels than reuse groups")
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	g := testGrid(t, hexgrid.Config{Shape: hexgrid.Rect, Width: 6, Height: 6, ReuseDistance: 2})
	a := MustAssign(g, 40)
	// Give cell 0's first primary to one of its interference neighbors.
	victim := g.Interference(0)[0]
	a.Primary[victim].Add(a.Primary[0].First())
	if err := a.Verify(g); err == nil {
		t.Fatal("Verify missed an overlapping primary")
	}
}

func TestVerifyDetectsEmptyPrimary(t *testing.T) {
	g := testGrid(t, hexgrid.Config{Shape: hexgrid.Rect, Width: 6, Height: 6, ReuseDistance: 1})
	a := MustAssign(g, 12)
	a.Primary[3] = NewSet(12)
	if err := a.Verify(g); err == nil {
		t.Fatal("Verify missed an empty primary set")
	}
}

func TestVerifyDetectsSizeMismatch(t *testing.T) {
	g := testGrid(t, hexgrid.Config{Shape: hexgrid.Rect, Width: 6, Height: 6, ReuseDistance: 1})
	g2 := testGrid(t, hexgrid.Config{Shape: hexgrid.Rect, Width: 5, Height: 5, ReuseDistance: 1})
	a := MustAssign(g, 12)
	if err := a.Verify(g2); err == nil {
		t.Fatal("Verify missed a cell-count mismatch")
	}
}

func TestPrimaryOwnersWithin(t *testing.T) {
	g := testGrid(t, hexgrid.Config{Shape: hexgrid.Rect, Width: 9, Height: 9, ReuseDistance: 2, Wrap: true})
	a := MustAssign(g, 63)
	center := g.InteriorCell()
	owners := a.PrimaryOwnersWithin(g, center)
	// Every channel primary to some cell in the closed neighborhood must
	// appear, and each owner must actually hold it as primary.
	for ch, cells := range owners {
		for _, c := range cells {
			if !a.Primary[c].Contains(ch) {
				t.Fatalf("cell %d listed as owner of %d but does not hold it", c, ch)
			}
			if c != center && !g.Interferes(center, c) {
				t.Fatalf("owner %d of channel %d outside IN(%d)", c, ch, center)
			}
		}
	}
	// The center's own primaries must be owned by exactly one cell in a
	// proper coloring neighborhood (itself).
	a.Primary[center].ForEach(func(ch Channel) bool {
		if len(owners[ch]) != 1 || owners[ch][0] != center {
			t.Fatalf("channel %d: owners %v, want [%d]", ch, owners[ch], center)
		}
		return true
	})
}

func TestMustAssignPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAssign should panic on error")
		}
	}()
	g := testGrid(t, hexgrid.Config{Shape: hexgrid.Rect, Width: 6, Height: 6, ReuseDistance: 2})
	MustAssign(g, 1)
}

// TestPrimaryViewsAreIndependent: every PR_i is a view into one table,
// yet a write to one cell's set — inside its words or past them — leaves
// every other cell's set as it was.
func TestPrimaryViewsAreIndependent(t *testing.T) {
	g := testGrid(t, hexgrid.Config{Shape: hexgrid.Rect, Width: 6, Height: 6, ReuseDistance: 2})
	a := MustAssign(g, 70)
	before := make([]Set, len(a.Primary))
	for i, p := range a.Primary {
		before[i] = p.Clone()
	}
	a.Primary[5].Add(69)
	a.Primary[5].Add(0)
	a.Primary[5].Add(200) // past its words: grows into a set of its own
	for i, p := range a.Primary {
		if i != 5 && !p.Equal(before[i]) {
			t.Fatalf("writing PR_5 changed PR_%d: %v, was %v", i, p, before[i])
		}
	}
	if !a.Primary[5].Contains(200) || !a.Primary[5].Contains(0) {
		t.Fatalf("PR_5 lost a write: %v", a.Primary[5])
	}
}

// TestConstructionAllocationBudget: Assign allocates the same number of
// objects at any size — one word table holds every PR_i.
func TestConstructionAllocationBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	count := func(side int) float64 {
		g := testGrid(t, hexgrid.Config{Shape: hexgrid.Rect, Width: side, Height: side, ReuseDistance: 2, Wrap: true})
		return testing.AllocsPerRun(20, func() { MustAssign(g, 70) })
	}
	small, large := count(24), count(120)
	t.Logf("chanset.Assign: %.0f objects at 24x24, %.0f at 120x120", small, large)
	if small != large {
		t.Errorf("chanset.Assign allocates %.0f objects at 24x24 but %.0f at 120x120", small, large)
	}
}
