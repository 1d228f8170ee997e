package chanset

import (
	"fmt"

	"repro/internal/hexgrid"
)

// Assignment is a static primary-channel plan: every cell owns a set of
// primary channels such that no two cells within the reuse distance share
// a primary channel. This is the reuse pattern the paper assumes as input
// ("Each cell i in the system is assigned a set of primary channels PR_i
// according to some reuse pattern").
type Assignment struct {
	// Spectrum is the full channel universe {0..n-1}.
	Spectrum Set
	// NumChannels is the size of the spectrum.
	NumChannels int
	// NumColors is the number of reuse groups the spectrum was split
	// into (>= chromatic need of the interference graph; equals the
	// classic cluster size on wrapped grids).
	NumColors int
	// Color[i] is the reuse group of cell i.
	Color []int
	// Primary[i] is PR_i: a capped view of cell i's own run of words in
	// one table that holds every cell's set, so the plan is a handful of
	// allocations at any grid size. Writing one cell's set never touches
	// another's (a write past the view reallocates that cell's set).
	Primary []Set
}

// latticeColorings maps reuse distance D to the parameters of an exact
// cyclic lattice coloring color(q, r) = (q + b*r) mod k. These are the
// classic cellular reuse clusters: any two cells sharing a color are at
// hex distance >= D+1, and k is minimal (or within one of minimal) for a
// cyclic pattern. Derived from the shift lattices (1,1), (1,2), (1,3),
// (2,3) respectively.
var latticeColorings = map[int]struct{ b, k int }{
	1: {2, 3},   // 3-cell cluster
	2: {3, 7},   // 7-cell cluster
	3: {4, 13},  // 13-cell cluster
	4: {12, 19}, // 19-cell cluster
}

// Assign colors the interference graph of g — with the exact cellular
// reuse-cluster pattern when one applies (3/7/13/19-cell clusters for
// reuse distance 1..4), otherwise with deterministic greedy coloring —
// and splits the n channels among the colors as evenly as possible,
// lower channel ids going to lower colors.
//
// The coloring is proper by construction: cells within the reuse distance
// never share a color, hence never share a primary channel, so a purely
// static allocator is interference-free. It returns an error if n is
// smaller than the number of colors (some cell would get no primaries).
func Assign(g *hexgrid.Grid, n int) (*Assignment, error) {
	if n < 1 {
		return nil, fmt.Errorf("chanset: need at least 1 channel, got %d", n)
	}
	color, numColors := latticeColor(g)
	if color == nil {
		color, numColors = greedyColor(g)
	}
	if n < numColors {
		return nil, fmt.Errorf("chanset: %d channels cannot cover %d reuse groups", n, numColors)
	}
	numCells := g.NumCells()
	// Split the spectrum round-robin so group sizes differ by at most 1.
	groups := make([]Set, numColors)
	for i := range groups {
		groups[i] = NewSet(n)
	}
	for ch := 0; ch < n; ch++ {
		groups[ch%numColors].Add(Channel(ch))
	}
	a := &Assignment{
		Spectrum:    FullSet(n),
		NumChannels: n,
		NumColors:   numColors,
		Color:       color,
		Primary:     make([]Set, numCells),
	}
	w := len(groups[0].words)
	table := make([]uint64, numCells*w)
	for i := range a.Primary {
		own := table[i*w : (i+1)*w : (i+1)*w]
		copy(own, groups[color[i]].words)
		a.Primary[i] = FromWords(own)
	}
	return a, nil
}

// latticeColor applies the cyclic cluster coloring for the grid's reuse
// distance if one is tabulated and it is proper on this grid (wrapped
// grids need dimensions compatible with the cluster size; incompatible
// ones fall back to greedy). Colors are compacted to those present.
// Returns (nil, 0) when inapplicable.
func latticeColor(g *hexgrid.Grid) ([]int, int) {
	p, ok := latticeColorings[g.Config().ReuseDistance]
	if !ok {
		return nil, 0
	}
	numCells := g.NumCells()
	color := make([]int, numCells)
	for i := 0; i < numCells; i++ {
		pos := g.Pos(hexgrid.CellID(i))
		c := (pos.Q + p.b*pos.R) % p.k
		if c < 0 {
			c += p.k
		}
		color[i] = c
	}
	// Proper on the infinite lattice by construction; wrapping can break
	// it, so verify directly.
	for i := 0; i < numCells; i++ {
		for _, j := range g.Interference(hexgrid.CellID(i)) {
			if color[i] == color[j] {
				return nil, 0
			}
		}
	}
	return compactColors(color, p.k)
}

// greedyColor colors the interference graph greedily in descending-degree
// order. Always proper; may use more colors than the lattice optimum.
func greedyColor(g *hexgrid.Grid) ([]int, int) {
	numCells := g.NumCells()
	color := make([]int, numCells)
	for i := range color {
		color[i] = -1
	}
	order := make([]int, numCells)
	for i := range order {
		order[i] = i
	}
	sortByDegree(g, order)
	numColors := 0
	// A cell's color is at most its degree, so used never grows.
	used := make([]bool, 0, g.MaxInterferenceDegree()+1)
	for _, i := range order {
		used = used[:0]
		for len(used) < numColors {
			used = append(used, false)
		}
		for _, j := range g.Interference(hexgrid.CellID(i)) {
			if c := color[j]; c >= 0 && c < len(used) {
				used[c] = true
			}
		}
		c := 0
		for c < len(used) && used[c] {
			c++
		}
		if c == numColors {
			numColors++
		}
		color[i] = c
	}
	return color, numColors
}

func sortByDegree(g *hexgrid.Grid, order []int) {
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			da := len(g.Interference(hexgrid.CellID(a)))
			db := len(g.Interference(hexgrid.CellID(b)))
			if da > db || (da == db && a < b) {
				break
			}
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
}

// compactColors remaps color values to a dense 0..m-1 range, dropping
// colors that no cell uses (possible on small unwrapped grids).
func compactColors(color []int, k int) ([]int, int) {
	remap := make([]int, k)
	for i := range remap {
		remap[i] = -1
	}
	next := 0
	for _, c := range color {
		if remap[c] == -1 {
			remap[c] = next
			next++
		}
	}
	for i, c := range color {
		color[i] = remap[c]
	}
	return color, next
}

// MustAssign is Assign but panics on error.
func MustAssign(g *hexgrid.Grid, n int) *Assignment {
	a, err := Assign(g, n)
	if err != nil {
		panic(err)
	}
	return a
}

// Verify checks the defining property of the assignment against the grid:
// interfering cells have disjoint primary sets and every cell has at
// least one primary channel. It returns nil when the plan is sound.
func (a *Assignment) Verify(g *hexgrid.Grid) error {
	if len(a.Primary) != g.NumCells() {
		return fmt.Errorf("chanset: assignment covers %d cells, grid has %d", len(a.Primary), g.NumCells())
	}
	for i := 0; i < g.NumCells(); i++ {
		if a.Primary[i].Empty() {
			return fmt.Errorf("chanset: cell %d has no primary channels", i)
		}
		for _, j := range g.Interference(hexgrid.CellID(i)) {
			if int(j) > i && a.Primary[i].Intersects(a.Primary[j]) {
				return fmt.Errorf("chanset: interfering cells %d and %d share primaries %v",
					i, j, Intersect(a.Primary[i], a.Primary[j]))
			}
		}
	}
	return nil
}

// PrimaryOwnersWithin returns, for each channel, the cells in the closed
// interference neighborhood of cell i (including i) that own the channel
// as a primary. This is the paper's NP(c, r) used by the advanced update
// scheme; n_p is its size.
func (a *Assignment) PrimaryOwnersWithin(g *hexgrid.Grid, i hexgrid.CellID) map[Channel][]hexgrid.CellID {
	out := make(map[Channel][]hexgrid.CellID)
	consider := func(j hexgrid.CellID) {
		pr := a.Primary[j]
		for c := pr.First(); c.Valid(); c = pr.Next(c) {
			out[c] = append(out[c], j)
		}
	}
	consider(i)
	for _, j := range g.Interference(i) {
		consider(j)
	}
	return out
}
