package netrun

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/message"
	"repro/internal/obs"
	"repro/internal/registry"
)

// twoNodes builds a minimal two-node cluster (cells split even/odd)
// and returns it with its routing installed.
func twoNodes(t testing.TB) (a, b *Node, grid *hexgrid.Grid) {
	t.Helper()
	grid = hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 5, Height: 5, ReuseDistance: 2, Wrap: true})
	assign := chanset.MustAssign(grid, 16)
	factory, err := registry.Build("adaptive", grid, assign, registry.Config{Latency: 10})
	if err != nil {
		t.Fatal(err)
	}
	parts := make([][]hexgrid.CellID, 2)
	for c := 0; c < grid.NumCells(); c++ {
		parts[c%2] = append(parts[c%2], hexgrid.CellID(c))
	}
	nodes := make([]*Node, 2)
	for i := range nodes {
		n, err := NewNode(grid, assign, factory, "127.0.0.1:0", Config{
			Cells: parts[i], LatencyTicks: 10, Seed: uint64(i) + 1,
			TickDuration: 20 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		t.Cleanup(n.Close)
	}
	routes := map[hexgrid.CellID]string{}
	for c := 0; c < grid.NumCells(); c++ {
		routes[hexgrid.CellID(c)] = nodes[c%2].Addr()
	}
	for _, n := range nodes {
		n.SetRoutes(routes)
	}
	return nodes[0], nodes[1], grid
}

// TestPeerDialRace hammers Node.peer for a not-yet-dialed address from
// many goroutines (run under -race): every caller must get the same
// peerConn, the peer table must hold exactly one entry, and the losers'
// extra connections must be closed rather than leaked as writers.
func TestPeerDialRace(t *testing.T) {
	a, b, _ := twoNodes(t)
	addr := b.Addr()
	const callers = 32
	conns := make([]*peerConn, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := a.peer(addr)
			if err != nil {
				t.Errorf("peer: %v", err)
				return
			}
			conns[i] = p
		}()
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if conns[i] != conns[0] {
			t.Fatalf("caller %d got a different peerConn", i)
		}
	}
	a.netMu.RLock()
	n := len(a.peers)
	a.netMu.RUnlock()
	if n != 1 {
		t.Fatalf("peer table holds %d entries, want 1", n)
	}
	// The surviving link must actually carry traffic.
	sent := a.fabric.Stats().Total
	a.fabric.Send(message.Message{Kind: message.Release, From: 0, To: 1, Ch: chanset.NoChannel})
	if got := a.fabric.Stats().Total; got != sent+1 {
		t.Fatalf("send through raced peer not counted: %d -> %d", sent, got)
	}
}

// TestLocalSendAllocBudget bounds caller-side allocations of the local
// fast path (stats update + mailbox closure): the atomic-stats rewrite
// must not reintroduce per-message lock-or-box allocations beyond the
// two unavoidable delivery closures.
func TestLocalSendAllocBudget(t *testing.T) {
	a, _, _ := twoNodes(t)
	m := message.Message{Kind: message.Release, From: 2, To: 0, Ch: chanset.NoChannel}
	allocs := testing.AllocsPerRun(200, func() { a.fabric.Send(m) })
	if allocs > 2 {
		t.Fatalf("local fabric send allocates %.1f objects/message on the caller, want <= 2", allocs)
	}
}

// TestDialFailureIsACountedDrop closes a peer while senders are dialing
// it: whichever side of the shutdown a sender lands on — link up, dial
// refused, or dialed and then reset — the message is delivered or
// counted in SendErrors, never a panic, and the sending node keeps
// serving its own cells.
func TestDialFailureIsACountedDrop(t *testing.T) {
	a, b, grid := twoNodes(t)
	m := message.Message{Kind: message.Release, From: 0, To: 1, Ch: chanset.NoChannel}
	const senders, each = 8, 200
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < each; j++ {
				a.fabric.Send(m) // a has never dialed b: the first sends dial
			}
		}()
	}
	close(start)
	b.Close() // mid-dial
	wg.Wait()

	// b is gone for good now: a send to it is refused at the dial (or, if
	// a link was registered before the listener closed, fails at the
	// write) — counted either way, and the peer table holds no dead dial.
	before := a.SendErrors()
	a.netMu.RLock()
	_, linked := a.peers[b.Addr()]
	a.netMu.RUnlock()
	for i := 0; i < 3; i++ {
		a.fabric.Send(m)
	}
	if !linked {
		if got := a.SendErrors(); got != before+3 {
			t.Fatalf("SendErrors = %d after 3 sends to a closed, never-linked peer, want %d", got, before+3)
		}
	}
	if a.SendErrors() > senders*each+3 {
		t.Fatalf("SendErrors = %d exceeds the %d messages sent", a.SendErrors(), senders*each+3)
	}

	// a still grants from its own primaries.
	cell := hexgrid.CellID(0)
	if int(grid.InteriorCell())%2 == 0 {
		cell = grid.InteriorCell()
	}
	done := make(chan Result, 1)
	a.Request(cell, func(r Result) { done <- r })
	select {
	case r := <-done:
		if !r.Granted {
			t.Fatal("local request denied after the peer went away")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("local request hung after the peer went away")
	}
}

// TestMalformedFrameIsACountedDrop: the wire codec accepts any int32
// channel, any sender and any Use width, so a raw TCP peer can hand a
// hosted allocator all of them. Each used to index past the per-channel
// tables and kill the node; now each is a counted drop and the node goes
// on serving. So is a frame for a cell the node does not host, which
// used to print one line per frame and count nothing.
func TestMalformedFrameIsACountedDrop(t *testing.T) {
	a, _, grid := twoNodes(t)
	const cell = hexgrid.CellID(0) // hosted by a
	nbr := grid.Interference(cell)[0]
	stranger := hexgrid.None
	for c := 0; c < grid.NumCells(); c++ {
		if id := hexgrid.CellID(c); id != cell && !grid.Interferes(cell, id) {
			stranger = id
			break
		}
	}
	if stranger == hexgrid.None {
		t.Fatal("the grid has no cell outside cell 0's interference region")
	}
	wide := chanset.NewSet(3 * 64) // three words on a 16-channel spectrum
	wide.Add(130)
	frames := []message.Message{
		{Kind: message.Acquisition, From: nbr, To: cell, Ch: 99},
		{Kind: message.Response, Res: message.ResStatus, From: nbr, To: cell, Use: wide},
		{Kind: message.ChangeMode, From: stranger, To: cell, Mode: message.ModeBorrowing},
	}
	conn, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Cell 1 lives on the other node. Sent first, so it has been read by
	// the time the frames behind it are counted.
	unhosted := message.Message{Kind: message.Release, From: cell, To: 1, Ch: chanset.NoChannel}
	for _, m := range append([]message.Message{unhosted}, frames...) {
		if err := message.Write(conn, m); err != nil {
			t.Fatal(err)
		}
	}
	// Read the counter on the cell's own mailbox goroutine.
	bad := func() uint64 {
		got := make(chan uint64, 1)
		a.local.Do(cell, func() {
			got <- a.hosted[cell].(alloc.CounterProvider).ProtocolCounters().BadMessages
		})
		return <-got
	}
	deadline := time.Now().Add(5 * time.Second)
	for bad() != uint64(len(frames)) {
		if time.Now().After(deadline) {
			t.Fatalf("BadMessages = %d, want %d", bad(), len(frames))
		}
		time.Sleep(time.Millisecond)
	}
	if got := a.SendErrors(); got != 1 {
		t.Fatalf("SendErrors = %d after one frame for a cell hosted elsewhere, want 1", got)
	}
	done := make(chan Result, 1)
	a.Request(cell, func(r Result) { done <- r })
	select {
	case r := <-done:
		if !r.Granted {
			t.Fatal("request denied after the malformed frames")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the node stopped serving after the malformed frames")
	}
}

// TestLateGrantIsReleasedBack: a borrow whose deadline is shorter than
// one message round is denied by the watchdog, and the grant the
// protocol still concludes is counted and handed back — on one node
// hosting every cell and on two nodes over TCP, the link being the only
// difference between them.
func TestLateGrantIsReleasedBack(t *testing.T) {
	grid := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	assign := chanset.MustAssign(grid, 21) // 3 primaries per cell
	factory, err := registry.Build("adaptive", grid, assign, registry.Config{Latency: 10})
	if err != nil {
		t.Fatal(err)
	}
	cell := grid.InteriorCell()
	for _, tc := range []struct {
		name, addr string
		nodes      int
	}{{"in-process", "", 1}, {"tcp", "127.0.0.1:0", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.New()
			nodes := make([]*Node, tc.nodes)
			routes := map[hexgrid.CellID]string{}
			for i := range nodes {
				var cells []hexgrid.CellID // nil on the single node: every cell
				for c := i; tc.nodes > 1 && c < grid.NumCells(); c += tc.nodes {
					cells = append(cells, hexgrid.CellID(c))
				}
				// Every hop waits out Delay, so no permission round ends
				// inside the 1 ms deadline set below.
				n, err := NewNode(grid, assign, factory, tc.addr, Config{
					Cells: cells, Delay: 2 * time.Millisecond, LatencyTicks: 10, Seed: uint64(i) + 1,
					RequestTimeout: 10 * time.Second, Obs: reg,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(n.Close)
				nodes[i] = n
				for _, c := range n.cfg.Cells {
					routes[c] = n.Addr()
				}
			}
			for _, n := range nodes {
				n.SetRoutes(routes)
			}
			host := nodes[int(cell)%tc.nodes]
			if tc.nodes == 1 && (host.Addr() != "" || len(host.hosted) != grid.NumCells()) {
				t.Fatalf("Cells nil, addr \"\": Addr() = %q, %d stations hosted, want \"\" and %d",
					host.Addr(), len(host.hosted), grid.NumCells())
			}
			results := make(chan Result, 1)
			request := func(timeout time.Duration) Result {
				t.Helper()
				host.mu.Lock()
				host.cfg.RequestTimeout = timeout
				host.mu.Unlock()
				host.Request(cell, func(r Result) { results <- r })
				select {
				case r := <-results:
					return r
				case <-time.After(30 * time.Second):
					t.Fatal("request neither granted nor denied")
					return Result{}
				}
			}
			primaries := assign.Primary[cell].Len()
			for i := 0; i < primaries; i++ {
				if r := request(10 * time.Second); !r.Granted {
					t.Fatalf("primary request %d denied", i)
				}
			}
			if r := request(time.Millisecond); r.Granted || host.DeadlineDenials() != 1 {
				t.Fatalf("borrow with a 1ms deadline: granted=%v, DeadlineDenials=%d; want a deadline denial", r.Granted, host.DeadlineDenials())
			}
			deadline := time.Now().Add(20 * time.Second)
			for reg.Snapshot()["adca_late_grants_total"] != 1 {
				if time.Now().After(deadline) {
					t.Fatalf("adca_late_grants_total = %v, want 1", reg.Snapshot()["adca_late_grants_total"])
				}
				time.Sleep(time.Millisecond)
			}
			for _, n := range nodes {
				if !n.WaitSettled(20 * time.Second) {
					t.Fatal("did not settle")
				}
			}
			if got := host.InUse(cell).Len(); got != primaries || host.BadReleases() != 0 {
				t.Fatalf("after the late grant: %d channels in use, %d bad releases; want %d and 0", got, host.BadReleases(), primaries)
			}
			if r := request(10 * time.Second); !r.Granted {
				t.Fatal("borrow with a generous deadline denied after the late grant was handed back")
			}
			for _, n := range nodes {
				if err := n.Violation(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
