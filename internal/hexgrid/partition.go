package hexgrid

import "fmt"

// Tile is one contiguous block of cell ids [Lo, Hi) owned by a single
// shard of the parallel kernel. Contiguity in id space matches the
// row-major layout of Rect grids (and the spiral layout of Hexagon
// grids), so a tile is also spatially compact: most of a cell's
// interference neighborhood stays inside its own tile, and a tile
// exchanges events with a few shards — those directly above and below
// and the id-adjacent ones — however many there are.
type Tile struct {
	// Lo and Hi bound the half-open id range [Lo, Hi).
	Lo, Hi CellID
}

// Cells returns the number of cells in the tile.
func (t Tile) Cells() int { return int(t.Hi - t.Lo) }

// Partition is a static assignment of every cell to one of n shards,
// produced by Grid.Partition. It is immutable after construction.
type Partition struct {
	tiles   []Tile
	shardOf []int32 // cell id -> owning shard
}

// Partition splits the grid into n contiguous tiles of near-equal size
// (sizes differ by at most one cell). The parallel kernel uses one shard
// per tile.
func (g *Grid) Partition(n int) (*Partition, error) {
	cells := g.NumCells()
	if n < 1 || n > cells {
		return nil, fmt.Errorf("hexgrid: partition into %d shards of a %d-cell grid", n, cells)
	}
	p := &Partition{
		tiles:   make([]Tile, n),
		shardOf: make([]int32, cells),
	}
	base, rem := cells/n, cells%n
	lo := 0
	for i := 0; i < n; i++ {
		size := base
		if i < rem {
			size++
		}
		p.tiles[i] = Tile{Lo: CellID(lo), Hi: CellID(lo + size)}
		for c := lo; c < lo+size; c++ {
			p.shardOf[c] = int32(i)
		}
		lo += size
	}
	return p, nil
}

// NumShards returns the number of tiles.
func (p *Partition) NumShards() int { return len(p.tiles) }

// Tile returns tile i.
func (p *Partition) Tile(i int) Tile { return p.tiles[i] }

// ShardOf returns the shard owning cell c.
func (p *Partition) ShardOf(c CellID) int { return int(p.shardOf[c]) }
