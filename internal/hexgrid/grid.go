package hexgrid

import (
	"fmt"
	"math"
	"slices"
)

// CellID identifies a cell (equivalently its mobile service station, MSS)
// inside one Grid. IDs are dense, starting at 0. The paper numbers cells
// 1..N; we use 0..N-1 and translate only in human-facing output.
type CellID int32

// None is the invalid cell id.
const None CellID = -1

// Shape selects how the set of cells of a Grid is laid out.
type Shape int

const (
	// Rect lays cells out in a parallelogram of Width x Height axial
	// coordinates. This is the standard "array of hexagonal cells" of
	// the paper's Figure 1.
	Rect Shape = iota
	// Hexagon lays cells out as a hexagonal patch of the given Radius
	// around the origin (1 + 3k(k+1) cells).
	Hexagon
)

// String implements fmt.Stringer.
func (s Shape) String() string {
	switch s {
	case Rect:
		return "rect"
	case Hexagon:
		return "hexagon"
	default:
		return fmt.Sprintf("Shape(%d)", int(s))
	}
}

// Config describes a grid to build.
type Config struct {
	Shape Shape
	// Width and Height are used when Shape == Rect.
	Width, Height int
	// Radius is used when Shape == Hexagon.
	Radius int
	// ReuseDistance D: two cells at hex distance <= D may not use the
	// same channel concurrently. Must be >= 1.
	ReuseDistance int
	// Wrap, when true and Shape == Rect, connects the parallelogram
	// toroidally so every cell has a full interference neighborhood
	// (no boundary effects). Requires Width and Height each to exceed
	// 2*ReuseDistance.
	Wrap bool
}

// Grid is an immutable hexagonal cell layout plus its interference
// structure. All slices returned by accessor methods alias internal
// storage and must not be modified.
//
// Every cell's interference region has the same shape, moved to the
// cell's position, so New computes that shape once — the stencil of
// lattice offsets at distance 1..D, in row-major order — and builds each
// cell's lists by adding it to the cell's position. The lists live in
// two CSR tables: one flat backing per list kind plus an offset table,
// four allocations for the whole grid instead of a slice header per cell.
type Grid struct {
	cfg   Config
	cells []Axial // position of each cell, indexed by CellID
	// box is the inverse of cells for Hexagon grids: the id at each
	// position of the (2R+1)² square around the origin, None where the
	// patch has no cell. Rect grids resolve positions arithmetically.
	box []CellID
	// Cell id's interference neighborhood IN(id), sorted and excluding
	// id, is nbrFlat[nbrOff[id]:nbrOff[id+1]]; its hex-distance-1
	// neighbors are adjFlat[adjOff[id]:adjOff[id+1]], sorted.
	nbrOff, adjOff   []uint32
	nbrFlat, adjFlat []CellID
	// slots is Slot's table, nil where Slot binary-searches instead: for
	// each class, the index in its cells' lists of the member at each
	// offset (dq, dr), -1 where there is none. Offsets run over
	// [-q.reach, q.reach] × [-r.reach, r.reach], class-major, then by dr.
	slots []int8
	q, r  slotAxis
}

// slotAxis is one axis of the slot table: a neighbor's offset along it
// lies in [-reach, reach], and on a wrapped axis an offset past that is
// moved back by side (0 on an unwrapped one, which leaves it outside).
type slotAxis struct{ reach, side int }

// index returns d+reach for an offset d that some wrap makes a neighbor
// offset, and something outside [0, 2·reach] otherwise.
func (a slotAxis) index(d int) int {
	d += a.reach
	if d > 2*a.reach {
		d -= a.side
	} else if d < 0 {
		d += a.side
	}
	return d
}

// span is one row of a stencil: the lattice offsets (dq, dr) for dq in
// [lo, hi].
type span struct{ dr, lo, hi int }

// adjacency is the stencil of hex distance 1, in row-major order.
var adjacency = []span{{-1, 0, 1}, {0, -1, -1}, {0, 1, 1}, {1, -1, 0}}

// New builds a grid from cfg. It returns an error for degenerate
// configurations rather than panicking, so callers can surface bad
// scenario files cleanly; a grid too large for CellID or for the
// neighborhood table is refused before anything is allocated.
func New(cfg Config) (*Grid, error) {
	if cfg.ReuseDistance < 1 {
		return nil, fmt.Errorf("hexgrid: reuse distance must be >= 1, got %d", cfg.ReuseDistance)
	}
	var n int // number of cells
	switch cfg.Shape {
	case Rect:
		if cfg.Width < 1 || cfg.Height < 1 {
			return nil, fmt.Errorf("hexgrid: rect grid needs positive dimensions, got %dx%d", cfg.Width, cfg.Height)
		}
		// Width <= 2D, written so that a huge D cannot overflow.
		if d := cfg.ReuseDistance; cfg.Wrap && ((cfg.Width+1)/2 <= d || (cfg.Height+1)/2 <= d) {
			return nil, fmt.Errorf("hexgrid: wrapped %dx%d grid too small for reuse distance %d", cfg.Width, cfg.Height, cfg.ReuseDistance)
		}
		if cfg.Width > maxCells/cfg.Height {
			return nil, fmt.Errorf("hexgrid: %dx%d grid has more cells than a CellID can index (%d)", cfg.Width, cfg.Height, maxCells)
		}
		n = cfg.Width * cfg.Height
	case Hexagon:
		if cfg.Radius < 0 {
			return nil, fmt.Errorf("hexgrid: hexagon radius must be >= 0, got %d", cfg.Radius)
		}
		if cfg.Wrap {
			return nil, fmt.Errorf("hexgrid: wrap is only supported for rect grids")
		}
		// 1 + 3k(k+1) <= maxCells needs k < 26 755; the first test keeps
		// the product from overflowing.
		if k := cfg.Radius; k > 1<<16 || 1+3*k*(k+1) > maxCells {
			return nil, fmt.Errorf("hexgrid: hexagon of radius %d has more cells than a CellID can index (%d)", k, maxCells)
		}
		n = 1 + 3*cfg.Radius*(cfg.Radius+1)
	default:
		return nil, fmt.Errorf("hexgrid: unknown shape %v", cfg.Shape)
	}
	g := &Grid{cfg: cfg}
	stencil, size := g.stencil()
	if uint64(n)*uint64(size) > math.MaxUint32 {
		return nil, fmt.Errorf("hexgrid: %d cells with up to %d interference neighbors each exceed the %d entries a neighborhood table can index",
			n, size, uint64(math.MaxUint32))
	}
	if cfg.Shape == Rect {
		g.cells = make([]Axial, 0, n)
		for r := 0; r < cfg.Height; r++ {
			for q := 0; q < cfg.Width; q++ {
				g.cells = append(g.cells, Axial{q, r})
			}
		}
	} else {
		k := cfg.Radius
		g.cells = Spiral(Axial{0, 0}, k)
		g.box = make([]CellID, (2*k+1)*(2*k+1))
		for i := range g.box {
			g.box[i] = None
		}
		for id, a := range g.cells {
			g.box[(a.R+k)*(2*k+1)+a.Q+k] = CellID(id)
		}
	}
	g.buildNeighborhoods(stencil, size)
	g.buildSlots(size)
	return g, nil
}

// maxCells is the most cells a grid may have: ids 0..maxCells-1, and
// maxCells itself (a tile's exclusive bound), fit a CellID.
const maxCells = math.MaxInt32

// MustNew is New but panics on error; for tests and examples with
// known-good configurations.
func MustNew(cfg Config) *Grid {
	g, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// stencil returns the offsets at hex distance 1..D in row-major order
// (by row dr, then column dq), which is ascending id order for a Rect
// cell away from the grid's edges, and how many there are. Row 0 is two
// spans, either side of the origin. On an unwrapped grid, offsets that
// cannot land on a cell from any cell — a row or column shift as large
// as the grid itself — are left out, so a reuse distance far beyond the
// grid costs nothing.
func (g *Grid) stencil() ([]span, int) {
	d, c := g.cfg.ReuseDistance, g.cfg
	maxQ, maxR := d, d
	switch {
	case c.Shape == Hexagon:
		maxQ, maxR = min(d, 2*c.Radius), min(d, 2*c.Radius)
	case !c.Wrap:
		maxQ, maxR = min(d, c.Width-1), min(d, c.Height-1)
	}
	// Past maxQ+maxR the bound on |dq+dr| below cuts nothing; clamping
	// keeps -d-dr from overflowing for a huge D.
	d = min(d, maxQ+maxR)
	rows := make([]span, 0, 2*maxR+2)
	size := 0
	for dr := -maxR; dr <= maxR; dr++ {
		// Row dr holds the dq with max(|dq|, |dr|, |dq+dr|) <= d.
		lo, hi := max(-d, -d-dr, -maxQ), min(d, d-dr, maxQ)
		if dr == 0 {
			rows = append(rows, span{0, lo, -1}, span{0, 1, hi})
		} else {
			rows = append(rows, span{dr, lo, hi})
		}
		size += hi - lo + 1
	}
	return rows, size - 1
}

// buildNeighborhoods computes, for every cell, the set of cells within
// the reuse distance (interference neighborhood) and within distance 1
// (physical adjacency, used for handoff): the stencils added to the
// cell's position, positions off an unwrapped grid dropped, and the
// result insertion-sorted — one pass with no moves for a Rect cell
// more than D from a wrap seam or an edge.
func (g *Grid) buildNeighborhoods(stencil []span, size int) {
	n := len(g.cells)
	g.nbrOff = make([]uint32, n+1)
	g.adjOff = make([]uint32, n+1)
	// Exact upper-bound capacities: the backings never reallocate.
	nbr := make([]CellID, 0, n*size)
	adj := make([]CellID, 0, n*6)
	for id, pos := range g.cells {
		nbrStart, adjStart := len(nbr), len(adj)
		nbr = g.appendCells(nbr, pos, stencil)
		adj = g.appendCells(adj, pos, adjacency)
		sortIDs(nbr[nbrStart:])
		sortIDs(adj[adjStart:])
		g.nbrOff[id+1] = uint32(len(nbr))
		g.adjOff[id+1] = uint32(len(adj))
	}
	g.nbrFlat, g.adjFlat = nbr, adj
}

// appendCells appends the cells at the stencil's offsets from pos.
//
// No dedup pass is needed: distinct lattice positions within distance D
// of a cell always resolve to distinct cells. For unwrapped grids that
// is immediate; for wrapped Rect grids two positions collide only when
// their coordinate deltas are multiples of (Width, Height), impossible
// while both dimensions exceed 2*ReuseDistance (enforced in New). The
// same argument shows a stencil position never wraps back onto the
// center, and lets a wrap be one add or subtract per axis.
func (g *Grid) appendCells(dst []CellID, pos Axial, stencil []span) []CellID {
	w, h := g.cfg.Width, g.cfg.Height
	for _, s := range stencil {
		r := pos.R + s.dr
		if g.box != nil { // Hexagon: small, so one lookup per position
			for q := pos.Q + s.lo; q <= pos.Q+s.hi; q++ {
				if id, ok := g.place(q, r); ok {
					dst = append(dst, id)
				}
			}
			continue
		}
		if uint(r) >= uint(h) {
			if !g.cfg.Wrap {
				continue
			}
			if r < 0 {
				r += h
			} else {
				r -= h
			}
		}
		base := r * w
		for q := pos.Q + s.lo; q <= pos.Q+s.hi; q++ {
			c := q
			if uint(c) >= uint(w) {
				if !g.cfg.Wrap {
					continue
				}
				if c < 0 {
					c += w
				} else {
					c -= w
				}
			}
			dst = append(dst, CellID(base+c))
		}
	}
	return dst
}

// place resolves a position on the grid — Rect: inside the
// parallelogram; Hexagon: inside the patch — to its cell id.
func (g *Grid) place(q, r int) (CellID, bool) {
	if g.box != nil {
		k := g.cfg.Radius
		side := 2*k + 1
		q, r = q+k, r+k
		if uint(q) >= uint(side) || uint(r) >= uint(side) {
			return None, false
		}
		id := g.box[r*side+q]
		return id, id != None
	}
	if uint(q) >= uint(g.cfg.Width) || uint(r) >= uint(g.cfg.Height) {
		return None, false
	}
	return CellID(r*g.cfg.Width + q), true
}

// sortIDs sorts tiny id lists (neighborhoods are <= 3D(D+1) entries) by
// insertion sort, avoiding sort.Slice's closure overhead on the 10^6
// calls a giant grid makes during construction.
func sortIDs(ids []CellID) {
	for i := 1; i < len(ids); i++ {
		v := ids[i]
		j := i - 1
		for j >= 0 && ids[j] > v {
			ids[j+1] = ids[j]
			j--
		}
		ids[j+1] = v
	}
}

// buildSlots builds Slot's table for a Rect grid whose lists fit its
// index type, from one cell of each class: its list gives the offset of
// each of its members, and every cell of the class has its members at
// the same offsets in the same order.
func (g *Grid) buildSlots(size int) {
	if g.box != nil || size > math.MaxInt8 {
		return
	}
	w, h, d := g.cfg.Width, g.cfg.Height, g.cfg.ReuseDistance
	g.q, g.r = slotAxis{reach: min(d, w-1)}, slotAxis{reach: min(d, h-1)}
	if g.cfg.Wrap {
		g.q.side, g.r.side = w, h
	}
	_, nq := axisClass(0, w, d)
	_, nr := axisClass(0, h, d)
	sq, sr := 2*g.q.reach+1, 2*g.r.reach+1
	g.slots = make([]int8, nq*nr*sq*sr)
	for i := range g.slots {
		g.slots[i] = -1
	}
	for cr := range nr {
		for cq := range nq {
			q, r := axisMember(cq, w, d), axisMember(cr, h, d)
			base := (cr*nq + cq) * sr * sq
			for k, j := range g.Interference(CellID(r*w + q)) {
				dq, dr := g.q.index(int(j)%w-q), g.r.index(int(j)/w-r)
				g.slots[base+dr*sq+dq] = int8(k)
			}
		}
	}
}

// Slot returns j's index in Interference(c), or -1 when j is not in it
// (j itself, a cell too far, or no cell at all). On a Rect grid it reads
// one entry of a table per stencil class — the neighbor lists are not
// touched; on a Hexagon grid, or one whose lists are too long for the
// table, it binary-searches c's list.
func (g *Grid) Slot(c, j CellID) int {
	if g.slots == nil {
		if k, ok := slices.BinarySearch(g.Interference(c), j); ok {
			return k
		}
		return -1
	}
	if uint(j) >= uint(len(g.cells)) {
		return -1
	}
	w := uint32(g.cfg.Width)
	qc, rc := int(uint32(c)%w), int(uint32(c)/w)
	dq, dr := g.q.index(int(uint32(j)%w)-qc), g.r.index(int(uint32(j)/w)-rc)
	sq, sr := 2*g.q.reach+1, 2*g.r.reach+1
	if uint(dq) >= uint(sq) || uint(dr) >= uint(sr) {
		return -1
	}
	return int(g.slots[(g.classAt(qc, rc)*sr+dr)*sq+dq])
}

// Class returns the stencil class of cell id, in [0, NumClasses()).
// Cells of one class have lists of one shape: the same stencil offsets
// (clipped off the same edges, or none) in the same order once sorted by
// id (wrapped across the same seams). So what follows from the layout of
// IN(id) in list order — which members interfere with which — is the
// same for every cell of a class. A Rect grid's class is a pair of axis
// classes: (2D+1)² of them when both sides are at least 2D+1, one of them
// every cell more than D from a seam or an edge. A Hexagon grid, which no
// scenario builds, gives each cell a class of its own: finer than need
// be, but a class is never wrong for being small.
func (g *Grid) Class(id CellID) int {
	if g.box != nil {
		return int(id)
	}
	w := g.cfg.Width
	return g.classAt(int(id)%w, int(id)/w)
}

// classAt returns the class of the Rect cell at (q, r).
func (g *Grid) classAt(q, r int) int {
	d := g.cfg.ReuseDistance
	cq, nq := axisClass(q, g.cfg.Width, d)
	cr, _ := axisClass(r, g.cfg.Height, d)
	return cr*nq + cq
}

// NumClasses returns the number of stencil classes.
func (g *Grid) NumClasses() int {
	if g.box != nil {
		return len(g.cells)
	}
	_, nq := axisClass(0, g.cfg.Width, g.cfg.ReuseDistance)
	_, nr := axisClass(0, g.cfg.Height, g.cfg.ReuseDistance)
	return nq * nr
}

// axisClass returns the class of position x on an axis of n positions,
// and the number of classes: a position within d of an end has its own,
// those further in share one, and an axis of ≤ 2d+1 positions has n.
func axisClass(x, n, d int) (class, classes int) {
	if n/2 <= d {
		return x, n
	}
	return min(x, d) + max(0, x-(n-1-d)), 2*d + 1
}

// axisMember returns a position of axis class k: the inverse of
// axisClass, taking the interior class at d.
func axisMember(k, n, d int) int {
	if n/2 <= d || k <= d {
		return k
	}
	return n - 1 - 2*d + k
}

// NumCells returns the number of cells in the grid.
func (g *Grid) NumCells() int { return len(g.cells) }

// Config returns the configuration the grid was built from.
func (g *Grid) Config() Config { return g.cfg }

// Pos returns the axial position of cell id.
func (g *Grid) Pos(id CellID) Axial { return g.cells[id] }

// At returns the cell at position a, applying wrapping if configured.
// The second result is false if no cell exists there.
func (g *Grid) At(a Axial) (CellID, bool) {
	if g.cfg.Wrap {
		// Any position, however far off: reduce it onto the grid.
		a = Axial{mod(a.Q, g.cfg.Width), mod(a.R, g.cfg.Height)}
	}
	return g.place(a.Q, a.R)
}

func mod(v, m int) int {
	v %= m
	if v < 0 {
		v += m
	}
	return v
}

// Interference returns the interference neighborhood IN(id): every cell
// within the reuse distance of id, excluding id itself, sorted by id.
// The returned slice is a capped view of the grid's neighborhood table.
func (g *Grid) Interference(id CellID) []CellID {
	lo, hi := g.nbrOff[id], g.nbrOff[id+1]
	return g.nbrFlat[lo:hi:hi]
}

// Adjacent returns the hex-distance-1 neighbors of id (up to six), used
// for mobility/handoff. The returned slice is a capped view of the
// grid's adjacency table.
func (g *Grid) Adjacent(id CellID) []CellID {
	lo, hi := g.adjOff[id], g.adjOff[id+1]
	return g.adjFlat[lo:hi:hi]
}

// Interferes reports whether cells a and b are within the reuse
// distance of each other (a != b).
func (g *Grid) Interferes(a, b CellID) bool { return g.Slot(a, b) >= 0 }

// MaxInterferenceDegree returns the size of the largest interference
// neighborhood in the grid (the paper's parameter N for interior cells).
func (g *Grid) MaxInterferenceDegree() int {
	most := 0
	for id := range g.cells {
		most = max(most, int(g.nbrOff[id+1]-g.nbrOff[id]))
	}
	return most
}

// InteriorCell returns the id of a cell with a full-size interference
// neighborhood, preferring one near the geometric middle of the grid.
// Useful for picking hotspot centers that are not boundary-distorted.
func (g *Grid) InteriorCell() CellID {
	want := g.MaxInterferenceDegree()
	var center Axial
	for _, p := range g.cells {
		center.Q += p.Q
		center.R += p.R
	}
	n := len(g.cells)
	center = Axial{center.Q / n, center.R / n}
	best, bestDist := CellID(0), int(^uint(0)>>1)
	for id, p := range g.cells {
		if len(g.Interference(CellID(id))) != want {
			continue
		}
		if d := Distance(p, center); d < bestDist {
			best, bestDist = CellID(id), d
		}
	}
	return best
}
