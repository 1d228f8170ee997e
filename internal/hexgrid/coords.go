// Package hexgrid models the hexagonal cellular layout used by cellular
// radio systems: axial coordinates, hex distance, rings, and the
// construction of rectangular-ish grids of hexagonal cells together with
// their interference neighborhoods.
//
// Cells are the unit of spatial reuse: a channel used in cell c may not be
// used concurrently in any cell whose hex (graph) distance from c is at
// most the reuse distance D. The set of those cells is the interference
// neighborhood IN(c) of the paper.
package hexgrid

import "fmt"

// Axial is a position on the hexagonal lattice in axial coordinates
// (pointy-top orientation). The third cube coordinate is implied:
// s = -q - r.
type Axial struct {
	Q, R int
}

// Cube returns the cube-coordinate triple (x, y, z) for a, with
// x + y + z = 0.
func (a Axial) Cube() (x, y, z int) {
	return a.Q, -a.Q - a.R, a.R
}

// String implements fmt.Stringer.
func (a Axial) String() string { return fmt.Sprintf("(%d,%d)", a.Q, a.R) }

// Add returns the component-wise sum a + b.
func (a Axial) Add(b Axial) Axial { return Axial{a.Q + b.Q, a.R + b.R} }

// Sub returns the component-wise difference a - b.
func (a Axial) Sub(b Axial) Axial { return Axial{a.Q - b.Q, a.R - b.R} }

// Scale returns a scaled by k.
func (a Axial) Scale(k int) Axial { return Axial{a.Q * k, a.R * k} }

// directions lists the six hex neighbors in counterclockwise order
// starting from "east".
var directions = [6]Axial{
	{+1, 0}, {+1, -1}, {0, -1}, {-1, 0}, {-1, +1}, {0, +1},
}

// Neighbor returns the neighbor of a in direction d (0..5).
func (a Axial) Neighbor(d int) Axial { return a.Add(directions[d%6]) }

// Distance returns the hex (graph) distance between a and b: the minimum
// number of single-cell steps to get from a to b.
func Distance(a, b Axial) int {
	d := a.Sub(b)
	x, y, z := d.Cube()
	return (abs(x) + abs(y) + abs(z)) / 2
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Ring returns the cells at exactly radius k from center, in order,
// starting from center + k*east and walking counterclockwise. Ring(c, 0)
// is [c].
func Ring(center Axial, k int) []Axial {
	if k == 0 {
		return []Axial{center}
	}
	return appendRing(make([]Axial, 0, 6*k), center, k)
}

// appendRing appends the cells of Ring(center, k) for k >= 1 to dst and
// returns the extended slice.
func appendRing(dst []Axial, center Axial, k int) []Axial {
	cur := center.Add(directions[0].Scale(k))
	for side := 0; side < 6; side++ {
		// Walk k steps along side. The direction for side i is
		// directions[(i+2)%6] so that the walk traces the hexagon.
		dir := directions[(side+2)%6]
		for step := 0; step < k; step++ {
			dst = append(dst, cur)
			cur = cur.Add(dir)
		}
	}
	return dst
}

// Spiral returns all cells within radius k of center: center first, then
// each ring 1..k in Ring order. It contains exactly 1 + 3k(k+1) cells.
func Spiral(center Axial, k int) []Axial {
	out := make([]Axial, 0, 1+3*k*(k+1))
	out = append(out, center)
	for i := 1; i <= k; i++ {
		out = appendRing(out, center, i)
	}
	return out
}
