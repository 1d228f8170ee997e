package hexgrid

import (
	"fmt"
	"slices"
)

// Tile is one contiguous block of cell ids [Lo, Hi) owned by a single
// shard of the parallel kernel. Contiguity in id space matches the
// row-major layout of Rect grids (and the spiral layout of Hexagon
// grids), so a tile is also spatially compact: most of a cell's
// interference neighborhood stays inside its own tile.
type Tile struct {
	// Lo and Hi bound the half-open id range [Lo, Hi).
	Lo, Hi CellID
	// Halo lists the tile's own cells whose interference neighborhood
	// reaches outside the tile — the cells whose protocol traffic can
	// cross a shard boundary. Sorted by id.
	Halo []CellID
}

// Cells returns the number of cells in the tile.
func (t Tile) Cells() int { return int(t.Hi - t.Lo) }

// Partition is a static assignment of every cell to one of n shards,
// produced by Grid.Partition. It is immutable after construction.
type Partition struct {
	tiles   []Tile
	shardOf []int32 // cell id -> owning shard
	halo    int     // total halo cells across all tiles
	// nbrShards[i] lists the distinct shards (sorted ascending) that
	// tile i's halo cells can reach — the only shards tile i ever
	// exchanges cross-shard events with. For contiguous ID-range tiles
	// of a row-major grid this is a small constant (the tiles directly
	// above/below plus the id-adjacent ones), independent of the total
	// shard count, which is what lets the kernel keep per-shard routing
	// state O(neighbor shards) instead of O(shards).
	nbrShards [][]int32
}

// Partition splits the grid into n contiguous tiles of near-equal size
// (sizes differ by at most one cell) and computes each tile's halo: the
// cells whose interference neighborhood crosses a tile boundary. The
// parallel kernel uses one shard per tile; only halo cells ever
// generate cross-shard messages.
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
	p.nbrShards = make([][]int32, n)
	for i := range p.tiles {
		t := &p.tiles[i]
		var nbrs []int32
		for c := t.Lo; c < t.Hi; c++ {
			crosses := false
			for _, nb := range g.Interference(c) {
				if s := p.shardOf[nb]; s != int32(i) {
					crosses = true
					if !slices.Contains(nbrs, s) {
						nbrs = append(nbrs, s)
					}
				}
			}
			if crosses {
				t.Halo = append(t.Halo, c)
				p.halo++
			}
		}
		slices.Sort(nbrs)
		p.nbrShards[i] = nbrs
	}
	return p, nil
}

// NumShards returns the number of tiles.
func (p *Partition) NumShards() int { return len(p.tiles) }

// Tile returns tile i. The Halo slice aliases internal storage.
func (p *Partition) Tile(i int) Tile { return p.tiles[i] }

// ShardOf returns the shard owning cell c.
func (p *Partition) ShardOf(c CellID) int { return int(p.shardOf[c]) }

// HaloCells returns the total number of halo cells across all tiles —
// the upper bound on cells that generate cross-shard traffic.
func (p *Partition) HaloCells() int { return p.halo }

// NeighborShards returns the distinct shards that shard src's halo cells
// can reach with protocol or handoff traffic, sorted ascending. Every
// cross-shard event originating in src lands in one of these shards, so
// routing structures sized by this list are O(neighbor shards) rather
// than O(total shards). The returned slice aliases internal storage.
func (p *Partition) NeighborShards(src int) []int32 { return p.nbrShards[src] }
