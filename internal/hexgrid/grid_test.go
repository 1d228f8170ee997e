package hexgrid

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/raceflag"
)

func TestNewRejectsBadConfigs(t *testing.T) {
	cases := []Config{
		{Shape: Rect, Width: 4, Height: 4, ReuseDistance: 0},
		{Shape: Rect, Width: 0, Height: 4, ReuseDistance: 1},
		{Shape: Rect, Width: 4, Height: 0, ReuseDistance: 2},
		{Shape: Rect, Width: 4, Height: 4, ReuseDistance: 2, Wrap: true}, // too small to wrap
		{Shape: Hexagon, Radius: -1, ReuseDistance: 1},
		{Shape: Hexagon, Radius: 2, ReuseDistance: 1, Wrap: true},
		{Shape: Shape(99), ReuseDistance: 1},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d (%+v): expected error", i, cfg)
		}
	}
}

func TestRectGridSize(t *testing.T) {
	g := MustNew(Config{Shape: Rect, Width: 7, Height: 5, ReuseDistance: 2})
	if g.NumCells() != 35 {
		t.Fatalf("NumCells = %d, want 35", g.NumCells())
	}
}

func TestHexagonGridSize(t *testing.T) {
	for k := 0; k <= 4; k++ {
		g := MustNew(Config{Shape: Hexagon, Radius: k, ReuseDistance: 1})
		want := 1 + 3*k*(k+1)
		if g.NumCells() != want {
			t.Errorf("radius %d: NumCells = %d, want %d", k, g.NumCells(), want)
		}
	}
}

func TestInterferenceSymmetric(t *testing.T) {
	g := MustNew(Config{Shape: Rect, Width: 8, Height: 8, ReuseDistance: 2})
	for i := 0; i < g.NumCells(); i++ {
		for _, j := range g.Interference(CellID(i)) {
			found := false
			for _, back := range g.Interference(j) {
				if back == CellID(i) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("asymmetric interference: %d in IN(%d) but not vice versa", j, i)
			}
		}
	}
}

func TestInterferenceMatchesDistance(t *testing.T) {
	g := MustNew(Config{Shape: Hexagon, Radius: 4, ReuseDistance: 2})
	for i := 0; i < g.NumCells(); i++ {
		for j := 0; j < g.NumCells(); j++ {
			if i == j {
				continue
			}
			a, b := CellID(i), CellID(j)
			wantIn := Distance(g.Pos(a), g.Pos(b)) <= 2
			if got := g.Interferes(a, b); got != wantIn {
				t.Fatalf("Interferes(%d,%d) = %v, want %v", i, j, got, wantIn)
			}
		}
	}
}

func TestInterferesSelf(t *testing.T) {
	g := MustNew(Config{Shape: Rect, Width: 5, Height: 5, ReuseDistance: 2})
	if g.Interferes(3, 3) {
		t.Fatal("a cell must not interfere with itself")
	}
}

func TestInteriorNeighborhoodSize(t *testing.T) {
	// Interior cells of a large grid with reuse distance D have
	// 3D(D+1) interference neighbors.
	for d := 1; d <= 3; d++ {
		g := MustNew(Config{Shape: Rect, Width: 12, Height: 12, ReuseDistance: d})
		want := 3 * d * (d + 1)
		if got := g.MaxInterferenceDegree(); got != want {
			t.Errorf("D=%d: max degree %d, want %d", d, got, want)
		}
	}
}

func TestWrapUniformDegree(t *testing.T) {
	g := MustNew(Config{Shape: Rect, Width: 9, Height: 9, ReuseDistance: 2, Wrap: true})
	want := 3 * 2 * 3 // 3D(D+1) with D=2
	for i := 0; i < g.NumCells(); i++ {
		if got := len(g.Interference(CellID(i))); got != want {
			t.Fatalf("wrapped cell %d has degree %d, want %d", i, got, want)
		}
	}
}

func TestWrapAdjacencyDegree(t *testing.T) {
	g := MustNew(Config{Shape: Rect, Width: 8, Height: 7, ReuseDistance: 1, Wrap: true})
	for i := 0; i < g.NumCells(); i++ {
		if got := len(g.Adjacent(CellID(i))); got != 6 {
			t.Fatalf("wrapped cell %d has %d adjacent cells, want 6", i, got)
		}
	}
}

func TestAdjacentSubsetOfInterference(t *testing.T) {
	g := MustNew(Config{Shape: Rect, Width: 10, Height: 6, ReuseDistance: 3})
	for i := 0; i < g.NumCells(); i++ {
		for _, j := range g.Adjacent(CellID(i)) {
			if !g.Interferes(CellID(i), j) {
				t.Fatalf("adjacent cell %d of %d not in interference set", j, i)
			}
		}
	}
}

func TestAtRoundTrip(t *testing.T) {
	g := MustNew(Config{Shape: Rect, Width: 6, Height: 4, ReuseDistance: 1})
	for i := 0; i < g.NumCells(); i++ {
		id, ok := g.At(g.Pos(CellID(i)))
		if !ok || id != CellID(i) {
			t.Fatalf("At(Pos(%d)) = (%d,%v)", i, id, ok)
		}
	}
}

func TestAtWrapped(t *testing.T) {
	g := MustNew(Config{Shape: Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	id1, ok1 := g.At(Axial{0, 0})
	id2, ok2 := g.At(Axial{7, 7})
	if !ok1 || !ok2 || id1 != id2 {
		t.Fatalf("wrapped lookup mismatch: (%d,%v) vs (%d,%v)", id1, ok1, id2, ok2)
	}
	id3, ok3 := g.At(Axial{-7, 14})
	if !ok3 || id3 != id1 {
		t.Fatalf("negative wrapped lookup mismatch: (%d,%v)", id3, ok3)
	}
}

func TestAtMissing(t *testing.T) {
	g := MustNew(Config{Shape: Rect, Width: 3, Height: 3, ReuseDistance: 1})
	if _, ok := g.At(Axial{100, 100}); ok {
		t.Fatal("lookup of far-away position should fail on unwrapped grid")
	}
}

func TestInteriorCellHasFullDegree(t *testing.T) {
	g := MustNew(Config{Shape: Rect, Width: 11, Height: 11, ReuseDistance: 2})
	c := g.InteriorCell()
	if len(g.Interference(c)) != g.MaxInterferenceDegree() {
		t.Fatalf("interior cell %d does not have max degree", c)
	}
}

func TestNeighborhoodsSorted(t *testing.T) {
	g := MustNew(Config{Shape: Hexagon, Radius: 3, ReuseDistance: 2})
	for i := 0; i < g.NumCells(); i++ {
		in := g.Interference(CellID(i))
		for k := 1; k < len(in); k++ {
			if in[k-1] >= in[k] {
				t.Fatalf("IN(%d) not strictly sorted: %v", i, in)
			}
		}
	}
}

func TestInterferesAgreesWithMembershipProperty(t *testing.T) {
	g := MustNew(Config{Shape: Rect, Width: 9, Height: 9, ReuseDistance: 2, Wrap: true})
	n := g.NumCells()
	f := func(a, b uint8) bool {
		i := CellID(int(a) % n)
		j := CellID(int(b) % n)
		inSet := false
		for _, x := range g.Interference(i) {
			if x == j {
				inSet = true
			}
		}
		return g.Interferes(i, j) == inSet
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConfigAccessor(t *testing.T) {
	cfg := Config{Shape: Hexagon, Radius: 2, ReuseDistance: 2}
	g := MustNew(cfg)
	if g.Config() != cfg {
		t.Fatalf("Config() = %+v, want %+v", g.Config(), cfg)
	}
}

func TestShapeString(t *testing.T) {
	if Rect.String() != "rect" || Hexagon.String() != "hexagon" {
		t.Error("shape string values changed")
	}
	if Shape(42).String() == "" {
		t.Error("unknown shape should still format")
	}
}

// TestNeighbourhoodsMatchReference checks every list against a
// brute-force reference: IN(id) is the sorted set of cells at hex
// distance 1..D — on a wrapped grid, at that distance through the seam —
// and Adjacent(id) those at distance 1; Interferes is symmetric.
func TestNeighbourhoodsMatchReference(t *testing.T) {
	var cases []Config
	for d := 1; d <= 3; d++ {
		for _, wh := range [][2]int{{2*d + 1, 2*d + 1}, {2*d + 1, 2*d + 4}, {2*d + 6, 2*d + 2}, {12, 9}} {
			for _, wrap := range []bool{false, true} {
				cases = append(cases, Config{Shape: Rect, Width: wh[0], Height: wh[1], ReuseDistance: d, Wrap: wrap})
			}
		}
		cases = append(cases, Config{Shape: Rect, Width: 1, Height: 5, ReuseDistance: d}, Config{Shape: Rect, Width: 3, Height: 1, ReuseDistance: d})
		for k := 0; k <= 4; k++ {
			cases = append(cases, Config{Shape: Hexagon, Radius: k, ReuseDistance: d})
		}
	}
	for _, cfg := range cases {
		g := MustNew(cfg)
		n := g.NumCells()
		for i := 0; i < n; i++ {
			var wantIN, wantAdj []CellID
			for j := 0; j < n; j++ {
				d := refDistance(cfg, g.Pos(CellID(i)), g.Pos(CellID(j)))
				if d >= 1 && d <= cfg.ReuseDistance {
					wantIN = append(wantIN, CellID(j))
				}
				if d == 1 {
					wantAdj = append(wantAdj, CellID(j))
				}
			}
			if got := g.Interference(CellID(i)); !slices.Equal(got, wantIN) {
				t.Fatalf("%+v: IN(%d) = %v, want %v", cfg, i, got, wantIN)
			}
			if got := g.Adjacent(CellID(i)); !slices.Equal(got, wantAdj) {
				t.Fatalf("%+v: Adjacent(%d) = %v, want %v", cfg, i, got, wantAdj)
			}
			for j := 0; j < n; j++ {
				if g.Interferes(CellID(i), CellID(j)) != g.Interferes(CellID(j), CellID(i)) {
					t.Fatalf("%+v: Interferes(%d, %d) is not symmetric", cfg, i, j)
				}
			}
		}
	}
}

// refDistance is the hex distance from a to b, the least over every
// image of b through the seams of a wrapped grid.
func refDistance(cfg Config, a, b Axial) int {
	if !cfg.Wrap {
		return Distance(a, b)
	}
	best := Distance(a, b)
	for dq := -1; dq <= 1; dq++ {
		for dr := -1; dr <= 1; dr++ {
			best = min(best, Distance(a, Axial{b.Q + dq*cfg.Width, b.R + dr*cfg.Height}))
		}
	}
	return best
}

// TestBenchmarkGridsUnchanged pins the lists of the four grids the
// benchmark builds (wrapped, reuse distance 2, sides 300, 60, 120 and 7)
// by an FNV-64a hash of every cell's IN and Adjacent lists, each as its
// length then its ids, little-endian int32: the values the ring walk
// that built them before the stencil produced.
func TestBenchmarkGridsUnchanged(t *testing.T) {
	for _, c := range []struct {
		side int
		want uint64
	}{{300, 0x8ef627a1830d626d}, {60, 0xffbaf9d264e81e45}, {120, 0x2b9960323843959d}, {7, 0xf310fde051079491}} {
		g := MustNew(Config{Shape: Rect, Width: c.side, Height: c.side, ReuseDistance: 2, Wrap: true})
		h := fnv.New64a()
		var b []byte
		put := func(ids []CellID) {
			b = binary.LittleEndian.AppendUint32(b[:0], uint32(len(ids)))
			for _, id := range ids {
				b = binary.LittleEndian.AppendUint32(b, uint32(id))
			}
			h.Write(b)
		}
		for id := 0; id < g.NumCells(); id++ {
			put(g.Interference(CellID(id)))
			put(g.Adjacent(CellID(id)))
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%dx%d: neighborhood hash %#x, want %#x", c.side, c.side, got, c.want)
		}
	}
}

// TestClassesShareShape: every cell's sorted interference list holds
// the offsets its class's first cell holds, in the same order (on a
// wrapped grid, offsets taken across the seam), so anything computed
// from a list's relative layout is a function of the class; and every
// class in [0, NumClasses()) has cells. A wrapped or
// unwrapped grid with sides past 2D+1 has (2D+1)² classes; a side of at
// most 2D+1 gives each of its positions one.
func TestClassesShareShape(t *testing.T) {
	for _, c := range []struct {
		cfg     Config
		classes int // 0: not pinned
	}{
		{Config{Shape: Rect, Width: 60, Height: 60, ReuseDistance: 2, Wrap: true}, 25},
		{Config{Shape: Rect, Width: 60, Height: 60, ReuseDistance: 3, Wrap: true}, 49},
		{Config{Shape: Rect, Width: 13, Height: 12, ReuseDistance: 2}, 25},
		{Config{Shape: Rect, Width: 13, Height: 12, ReuseDistance: 5, Wrap: true}, 121},
		{Config{Shape: Rect, Width: 7, Height: 7, ReuseDistance: 3, Wrap: true}, 49},
		{Config{Shape: Rect, Width: 5, Height: 4, ReuseDistance: math.MaxInt}, 20},
		{Config{Shape: Hexagon, Radius: 6, ReuseDistance: 2}, 1 + 3*6*7},
	} {
		g := MustNew(c.cfg)
		offsets := func(id CellID) []Axial {
			var out []Axial
			for _, nb := range g.Interference(id) {
				o := g.Pos(nb).Sub(g.Pos(id))
				if d := c.cfg.ReuseDistance; c.cfg.Wrap {
					o = Axial{mod(o.Q+d, c.cfg.Width) - d, mod(o.R+d, c.cfg.Height) - d}
				}
				out = append(out, o)
			}
			return out
		}
		if n := g.NumClasses(); c.classes != 0 && n != c.classes || n > g.NumCells() {
			t.Fatalf("%+v: %d classes, want %d", c.cfg, n, c.classes)
		}
		first := make([]CellID, g.NumClasses()) // the first cell of each class
		for k := range first {
			first[k] = None
		}
		for id := range CellID(g.NumCells()) {
			k := g.Class(id)
			if k < 0 || k >= len(first) {
				t.Fatalf("%+v: cell %d of class %d, outside [0, %d)", c.cfg, id, k, len(first))
			}
			if first[k] == None {
				first[k] = id
			}
			if got, want := offsets(id), offsets(first[k]); !slices.Equal(got, want) {
				t.Fatalf("%+v: cell %d of class %d has offsets %v, its class %v", c.cfg, id, k, got, want)
			}
		}
		if i := slices.Index(first, None); i >= 0 {
			t.Fatalf("%+v: no cell of class %d", c.cfg, i)
		}
		t.Logf("%+v: %d classes among %d cells", c.cfg, len(first), g.NumCells())
	}
}

// TestOversizedGridsRefused: a grid with more cells than a CellID can
// index, or a neighborhood table larger than its offsets can index, is a
// descriptive error, returned before anything is allocated.
func TestOversizedGridsRefused(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{Shape: Rect, Width: 1 << 16, Height: 1 << 16, ReuseDistance: 1}, "more cells than a CellID"},
		{Config{Shape: Rect, Width: 1 << 40, Height: 1 << 40, ReuseDistance: 1, Wrap: true}, "more cells than a CellID"},
		{Config{Shape: Hexagon, Radius: 1 << 15, ReuseDistance: 1}, "more cells than a CellID"},
		{Config{Shape: Hexagon, Radius: 1 << 40, ReuseDistance: 1}, "more cells than a CellID"},
		{Config{Shape: Rect, Width: 1 << 15, Height: 1 << 15, ReuseDistance: 2, Wrap: true}, "neighborhood table"},
		{Config{Shape: Hexagon, Radius: 20000, ReuseDistance: 3}, "neighborhood table"},
	} {
		allocs := testing.AllocsPerRun(1, func() {
			_, err := New(c.cfg)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%+v: error %v, want one saying %q", c.cfg, err, c.want)
			}
		})
		if allocs > 8 && !raceflag.Enabled {
			t.Errorf("%+v: refused after %.0f allocations", c.cfg, allocs)
		}
	}
}

// TestConstructionAllocationBudget: New allocates the same number of
// objects at any size — the CSR tables, the cell positions and the
// stencil, none of them per cell.
func TestConstructionAllocationBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	count := func(side int) float64 {
		return testing.AllocsPerRun(20, func() {
			MustNew(Config{Shape: Rect, Width: side, Height: side, ReuseDistance: 2, Wrap: true})
		})
	}
	small, large := count(24), count(120)
	t.Logf("hexgrid.New: %.0f objects at 24x24, %.0f at 120x120", small, large)
	if small != large {
		t.Errorf("hexgrid.New allocates %.0f objects at 24x24 but %.0f at 120x120", small, large)
	}
}

// TestHugeReuseDistance: on an unwrapped grid a reuse distance beyond
// the grid makes every other cell a neighbor, at no cost past the grid's
// own size; a wrapped grid refuses it without overflowing.
func TestHugeReuseDistance(t *testing.T) {
	for _, cfg := range []Config{
		{Shape: Rect, Width: 5, Height: 4, ReuseDistance: math.MaxInt},
		{Shape: Hexagon, Radius: 2, ReuseDistance: math.MaxInt},
	} {
		g := MustNew(cfg)
		for id := 0; id < g.NumCells(); id++ {
			if got := len(g.Interference(CellID(id))); got != g.NumCells()-1 {
				t.Fatalf("%+v: cell %d has %d neighbors, want %d", cfg, id, got, g.NumCells()-1)
			}
		}
	}
	if _, err := New(Config{Shape: Rect, Width: 9, Height: 9, ReuseDistance: math.MaxInt/2 + 1, Wrap: true}); err == nil {
		t.Fatal("a wrapped grid accepted a reuse distance past its sides")
	}
}
