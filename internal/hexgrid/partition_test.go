package hexgrid

import "testing"

func checkPartition(t *testing.T, g *Grid, n int) *Partition {
	t.Helper()
	p, err := g.Partition(n)
	if err != nil {
		t.Fatalf("Partition(%d): %v", n, err)
	}
	if p.NumShards() != n {
		t.Fatalf("NumShards = %d, want %d", p.NumShards(), n)
	}
	cells := g.NumCells()
	covered := 0
	base := cells / n
	for i := 0; i < n; i++ {
		tile := p.Tile(i)
		if tile.Cells() < base || tile.Cells() > base+1 {
			t.Errorf("tile %d has %d cells, want %d or %d", i, tile.Cells(), base, base+1)
		}
		if i > 0 && tile.Lo != p.Tile(i-1).Hi {
			t.Errorf("tile %d not contiguous with its predecessor", i)
		}
		for c := tile.Lo; c < tile.Hi; c++ {
			if p.ShardOf(c) != i {
				t.Fatalf("ShardOf(%d) = %d, want %d", c, p.ShardOf(c), i)
			}
			covered++
		}
	}
	if covered != cells {
		t.Fatalf("tiles cover %d cells, want %d", covered, cells)
	}
	return p
}

func TestPartitionRect(t *testing.T) {
	g := MustNew(Config{Shape: Rect, Width: 10, Height: 8, ReuseDistance: 2})
	for _, n := range []int{1, 3, 7, 16, 80} {
		p := checkPartition(t, g, n)
		if n == 1 && haloCells(g, p) != 0 {
			t.Errorf("single-shard partition has %d halo cells, want 0", haloCells(g, p))
		}
		if n == 80 {
			// Every cell interferes with something abroad when alone.
			if haloCells(g, p) != 80 {
				t.Errorf("per-cell partition has %d halo cells, want 80", haloCells(g, p))
			}
		}
	}
}

func TestPartitionHexagon(t *testing.T) {
	g := MustNew(Config{Shape: Hexagon, Radius: 4, ReuseDistance: 2})
	for _, n := range []int{1, 2, 5, g.NumCells()} {
		checkPartition(t, g, n)
	}
}

func TestPartitionWrapped(t *testing.T) {
	g := MustNew(Config{Shape: Rect, Width: 9, Height: 9, ReuseDistance: 2, Wrap: true})
	p := checkPartition(t, g, 4)
	// On a torus the first and last tiles wrap into each other, so both
	// ends must contribute halo cells.
	if len(halo(g, p, 0)) == 0 || len(halo(g, p, 3)) == 0 {
		t.Errorf("wrapped partition missing halo at the seam: %d / %d",
			len(halo(g, p, 0)), len(halo(g, p, 3)))
	}
}

func TestPartitionInvalid(t *testing.T) {
	g := MustNew(Config{Shape: Rect, Width: 4, Height: 4, ReuseDistance: 1})
	for _, n := range []int{0, -1, 17} {
		if _, err := g.Partition(n); err == nil {
			t.Errorf("Partition(%d) of a 16-cell grid: want error", n)
		}
	}
}

func TestPartitionHaloBoundsInterior(t *testing.T) {
	// With row-major tiles of >= 2*D rows, only cells within D rows of a
	// tile boundary can be halo; interior rows must not be.
	g := MustNew(Config{Shape: Rect, Width: 10, Height: 20, ReuseDistance: 2, Wrap: true})
	p, err := g.Partition(2) // tiles of 10 rows each
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got, want := len(halo(g, p, i)), 4*10; got != want {
			t.Errorf("tile %d: %d halo cells, want %d (2 boundary rows per seam, 2 seams on the torus)", i, got, want)
		}
	}
}

func TestPartitionNeighborShardsSparse(t *testing.T) {
	// At 256 shards of a 500x500 wrapped grid each tile must talk to a
	// small constant number of neighbor shards, independent of the shard
	// count: contiguous ID-range tiles are bands of rows, so a tile's
	// halo reaches only the few id-adjacent tiles above and below it.
	// This is the property that lets the kernel and the traffic runner
	// keep per-shard routing and reservations O(neighbor shards) rather
	// than O(shards).
	g := MustNew(Config{Shape: Rect, Width: 500, Height: 500, ReuseDistance: 2, Wrap: true})
	const shards = 256
	p, err := g.Partition(shards)
	if err != nil {
		t.Fatal(err)
	}
	const maxNeighbors = 8 // small constant; dense routing would be shards-1 = 255
	total := 0
	for i := 0; i < shards; i++ {
		nbrs := neighborShards(g, p, i)
		if len(nbrs) > maxNeighbors {
			t.Errorf("shard %d has %d neighbor shards (%v), want <= %d", i, len(nbrs), nbrs, maxNeighbors)
		}
		total += len(nbrs)
	}
	if avg := float64(total) / shards; avg >= float64(shards)/4 {
		t.Errorf("average neighbor-shard count %.1f is not sparse for %d shards", avg, shards)
	}
}
