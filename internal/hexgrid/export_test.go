package hexgrid

import "slices"

// Directions returns the six unit direction vectors of the hex lattice.
func Directions() [6]Axial { return directions }

// halo lists tile i's cells whose interference neighborhood reaches
// outside the tile — the cells whose protocol traffic can cross a shard
// boundary — sorted by id.
func halo(g *Grid, p *Partition, i int) []CellID {
	var out []CellID
	t := p.Tile(i)
	for c := t.Lo; c < t.Hi; c++ {
		if slices.ContainsFunc(g.Interference(c), func(nb CellID) bool { return p.ShardOf(nb) != i }) {
			out = append(out, c)
		}
	}
	return out
}

// haloCells counts the halo cells of every tile: the bound on the cells
// that generate cross-shard traffic.
func haloCells(g *Grid, p *Partition) int {
	n := 0
	for i := range p.NumShards() {
		n += len(halo(g, p, i))
	}
	return n
}

// neighborShards lists, ascending, the shards other than src that
// shard src's cells' interference neighborhoods reach: every cross-shard
// event from src lands in one of them.
func neighborShards(g *Grid, p *Partition, src int) []int32 {
	var out []int32
	t := p.Tile(src)
	for c := t.Lo; c < t.Hi; c++ {
		for _, nb := range g.Interference(c) {
			if s := int32(p.ShardOf(nb)); int(s) != src && !slices.Contains(out, s) {
				out = append(out, s)
			}
		}
	}
	slices.Sort(out)
	return out
}
