package netrun_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/netrun"
	"repro/internal/registry"
	"repro/internal/transport"
)

// cluster builds nNodes TCP nodes over localhost, partitioning the grid
// cells round-robin, and wires the routing tables.
func cluster(t *testing.T, scheme string, channels, nNodes int, seed uint64) ([]*netrun.Node, *hexgrid.Grid, map[hexgrid.CellID]*netrun.Node) {
	t.Helper()
	grid := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	assign, err := chanset.Assign(grid, channels)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := registry.Build(scheme, grid, assign, registry.Config{Latency: 10})
	if err != nil {
		t.Fatal(err)
	}
	parts := make([][]hexgrid.CellID, nNodes)
	owner := make(map[hexgrid.CellID]int)
	for c := 0; c < grid.NumCells(); c++ {
		parts[c%nNodes] = append(parts[c%nNodes], hexgrid.CellID(c))
		owner[hexgrid.CellID(c)] = c % nNodes
	}
	nodes := make([]*netrun.Node, nNodes)
	for i := range nodes {
		n, err := netrun.NewNode(grid, assign, factory, "127.0.0.1:0", netrun.Config{
			Cells: parts[i], LatencyTicks: 10, Seed: seed + uint64(i),
			TickDuration: 50 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	routes := make(map[hexgrid.CellID]string)
	for c, i := range owner {
		routes[c] = nodes[i].Addr()
	}
	hostOf := make(map[hexgrid.CellID]*netrun.Node)
	for c, i := range owner {
		hostOf[c] = nodes[i]
	}
	for _, n := range nodes {
		n.SetRoutes(routes)
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	return nodes, grid, hostOf
}

func TestDistributedLocalGrant(t *testing.T) {
	_, grid, hostOf := cluster(t, "adaptive", 70, 3, 1)
	cell := grid.InteriorCell()
	done := make(chan netrun.Result, 1)
	hostOf[cell].Request(cell, func(r netrun.Result) { done <- r })
	select {
	case r := <-done:
		if !r.Granted {
			t.Fatal("expected grant")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timeout")
	}
}

func TestDistributedBorrowAcrossTCP(t *testing.T) {
	// 21 channels → 3 primaries per cell; four requests at one cell
	// force borrowing, whose permission round crosses real sockets.
	_, grid, hostOf := cluster(t, "adaptive", 21, 4, 2)
	cell := grid.InteriorCell()
	host := hostOf[cell]
	var wg sync.WaitGroup
	var mu sync.Mutex
	var got []netrun.Result
	for i := 0; i < 4; i++ {
		wg.Add(1)
		host.Request(cell, func(r netrun.Result) {
			mu.Lock()
			got = append(got, r)
			mu.Unlock()
			wg.Done()
		})
	}
	waitCh := make(chan struct{})
	go func() { wg.Wait(); close(waitCh) }()
	select {
	case <-waitCh:
	case <-time.After(30 * time.Second):
		t.Fatal("distributed borrow timed out")
	}
	grants := 0
	held := chanset.Set{}
	for _, r := range got {
		if r.Granted {
			grants++
			if held.Contains(r.Ch) {
				t.Fatalf("channel %d granted twice", r.Ch)
			}
			held.Add(r.Ch)
		}
	}
	if grants != 4 {
		t.Fatalf("granted %d of 4 with idle neighbors", grants)
	}
	if host.MessagesSent() == 0 {
		t.Fatal("borrowing must send messages")
	}
}

func TestDistributedNeighborhoodSafety(t *testing.T) {
	// Concurrent requests across nodes in one interference region; then
	// verify no co-channel interference among the committed holdings
	// (collected over TCP-hosted stations after settling).
	_, grid, hostOf := cluster(t, "adaptive", 21, 3, 3)
	center := grid.InteriorCell()
	targets := append([]hexgrid.CellID{center}, grid.Interference(center)...)
	var wg sync.WaitGroup
	for i, c := range targets {
		for k := 0; k < 2; k++ {
			wg.Add(1)
			cell := c
			hold := time.Duration(1+(i+k)%3) * time.Millisecond
			go func() {
				defer wg.Done()
				done := make(chan netrun.Result, 1)
				hostOf[cell].Request(cell, func(r netrun.Result) { done <- r })
				select {
				case r := <-done:
					if r.Granted {
						time.Sleep(hold)
						hostOf[cell].Release(cell, r.Ch)
					}
				case <-time.After(30 * time.Second):
					t.Error("request timed out")
				}
			}()
		}
	}
	wg.Wait()
	// Settle: wait for outstanding work to drain everywhere.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		total := 0
		for _, n := range hostOf {
			total += n.Outstanding()
		}
		if total == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // in-flight releases
	for _, a := range targets {
		ua := hostOf[a].InUse(a)
		if ua.Empty() {
			continue
		}
		for _, b := range grid.Interference(a) {
			if ua.Intersects(hostOf[b].InUse(b)) {
				t.Fatalf("co-channel interference between %d and %d over TCP", a, b)
			}
		}
	}
	for _, n := range hostOf {
		if err := n.Violation(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDistributedFixedNoSockets(t *testing.T) {
	nodes, grid, hostOf := cluster(t, "fixed", 70, 2, 4)
	cell := grid.InteriorCell()
	done := make(chan netrun.Result, 1)
	hostOf[cell].Request(cell, func(r netrun.Result) { done <- r })
	select {
	case r := <-done:
		if !r.Granted {
			t.Fatal("expected grant")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
	for _, n := range nodes {
		if n.MessagesSent() != 0 {
			t.Fatal("fixed allocation must not message")
		}
	}
}

func TestNodeMisuse(t *testing.T) {
	_, grid, hostOf := cluster(t, "fixed", 70, 2, 5)
	// Requesting a cell on the wrong node must panic loudly.
	var wrong *netrun.Node
	cell := grid.InteriorCell()
	for c, n := range hostOf {
		if c != cell && n != hostOf[cell] {
			wrong = n
			break
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-hosted cell")
		}
	}()
	wrong.Request(cell, nil)
}

func TestDistributedFaultyLinksEveryRequestTerminates(t *testing.T) {
	// The fault + reliability stack over real TCP: with loss, duplicates
	// and jitter injected at every node, each request still terminates as
	// a grant or a counted denial and no co-channel interference commits.
	grid := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	assign, err := chanset.Assign(grid, 21)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := registry.Build("adaptive", grid, assign, registry.Config{Latency: 10})
	if err != nil {
		t.Fatal(err)
	}
	const nNodes = 3
	parts := make([][]hexgrid.CellID, nNodes)
	owner := make(map[hexgrid.CellID]int)
	for c := 0; c < grid.NumCells(); c++ {
		parts[c%nNodes] = append(parts[c%nNodes], hexgrid.CellID(c))
		owner[hexgrid.CellID(c)] = c % nNodes
	}
	nodes := make([]*netrun.Node, nNodes)
	for i := range nodes {
		n, err := netrun.NewNode(grid, assign, factory, "127.0.0.1:0", netrun.Config{
			Cells: parts[i], LatencyTicks: 10, Seed: 100 + uint64(i),
			TickDuration: 50 * time.Microsecond,
			Fault: &transport.FaultConfig{
				Seed: 100 + uint64(i), Drop: 0.02, Duplicate: 0.02,
				JitterMin: 5 * time.Microsecond, JitterMax: 100 * time.Microsecond,
			},
			Reliable:       &transport.ReliableConfig{Timeout: 2 * time.Millisecond},
			RequestTimeout: 20 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	routes := make(map[hexgrid.CellID]string)
	for c, i := range owner {
		routes[c] = nodes[i].Addr()
	}
	for _, n := range nodes {
		n.SetRoutes(routes)
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})

	center := grid.InteriorCell()
	targets := append([]hexgrid.CellID{center}, grid.Interference(center)...)
	var wg sync.WaitGroup
	total := 0
	for i, c := range targets {
		for k := 0; k < 4; k++ {
			total++
			wg.Add(1)
			cell := c
			host := nodes[owner[c]]
			hold := time.Duration(1+(i+k)%3) * time.Millisecond
			go func() {
				defer wg.Done()
				done := make(chan netrun.Result, 1)
				host.Request(cell, func(r netrun.Result) { done <- r })
				select {
				case r := <-done:
					if r.Granted {
						time.Sleep(hold)
						host.Release(cell, r.Ch)
					}
				case <-time.After(60 * time.Second):
					t.Error("request hung despite reliability layer + watchdog")
				}
			}()
		}
	}
	wg.Wait()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		out := 0
		for _, n := range nodes {
			out += n.Outstanding()
		}
		if out == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // in-flight releases
	var agg transport.Stats
	for _, n := range nodes {
		agg.Add(n.Stats())
	}
	if agg.DropsInjected == 0 {
		t.Fatalf("no faults injected over %d messages", agg.Total)
	}
	if agg.Retransmits == 0 {
		t.Fatalf("drops injected but no retransmits: %+v", agg)
	}
	for _, a := range targets {
		ua := nodes[owner[a]].InUse(a)
		if ua.Empty() {
			continue
		}
		for _, b := range grid.Interference(a) {
			if ua.Intersects(nodes[owner[b]].InUse(b)) {
				t.Fatalf("co-channel interference between %d and %d under faults", a, b)
			}
		}
	}
	for _, n := range nodes {
		if err := n.Violation(); err != nil {
			t.Fatal(err)
		}
	}
}
