package netrun_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/message"
	"repro/internal/netrun"
	"repro/internal/obs"
	"repro/internal/raceflag"
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

// TestBorrowRoundAllocationBudget: a warm borrow + release round between
// two nodes over TCP — the tcp-borrow benchmark's round — allocates at
// most 0.1 objects per fabric message. The node's loop and its peer
// writers hand messages off without a closure, a channel box or a queue node
// each; what is left is per round (the request's bookkeeping) or per
// message that carries a used-channel set.
func TestBorrowRoundAllocationBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	nodes, grid, hostOf := cluster(t, "adaptive", 21, 2, 5)
	cell := grid.InteriorCell()
	host := hostOf[cell]
	done := make(chan netrun.Result, 1)
	cb := func(r netrun.Result) { done <- r }
	request := func() netrun.Result {
		host.Request(cell, cb)
		return <-done // no time.After here: its timer would count against the budget
	}
	primaries := 21 / 7 // 21 channels on a reuse-2 plan: 3 per cell
	for i := 0; i < primaries; i++ {
		if !request().Granted {
			t.Fatalf("primary request %d denied", i)
		}
	}
	round := func() {
		r := request()
		if !r.Granted {
			t.Fatal("borrow denied")
		}
		host.Release(r.Cell, r.Ch)
	}
	for i := 0; i < 50; i++ {
		round() // dial both links and warm every queue
	}
	sent := func() (total uint64) {
		for _, n := range nodes {
			total += n.FabricStats().Total
		}
		return total
	}
	const runs = 300
	before := sent()
	allocs := testing.AllocsPerRun(runs, round)
	perRound := float64(sent()-before) / (runs + 1) // AllocsPerRun makes one warm-up call
	if perRound < 10 {
		t.Fatalf("%.1f fabric messages per round: the rounds are not borrowing", perRound)
	}
	perMsg := allocs / perRound
	t.Logf("%.1f objects for %.1f fabric messages per round: %.3f per message", allocs, perRound, perMsg)
	if perMsg > 0.1 {
		t.Fatalf("a warm borrow round allocates %.1f objects for %.1f fabric messages (%.3f per message), want <= 0.1",
			allocs, perRound, perMsg)
	}
}

// grantZero grants channel 0 to every request: two neighbours holding it
// at once falsify Theorem 1.
type grantZero struct {
	env alloc.Env
	use chanset.Set
}

func (g *grantZero) Start(env alloc.Env)        { g.env, g.use = env, chanset.NewSet(70) }
func (g *grantZero) Request(id alloc.RequestID) { g.use.Add(0); g.env.Granted(id, 0) }
func (g *grantZero) Release(ch chanset.Channel) error {
	g.use.Remove(ch)
	return nil
}
func (g *grantZero) Handle(message.Message) {}
func (g *grantZero) InUse() chanset.Set     { return g.use }
func (g *grantZero) Mode() int              { return 0 }

type grantZeroFactory struct{}

func (grantZeroFactory) Name() string                       { return "grant-zero" }
func (grantZeroFactory) New(hexgrid.CellID) alloc.Allocator { return &grantZero{} }

// TestViolationNamesTheCoChannelPair: the node checks each committed
// grant against its neighbours' committed holdings, which a release
// leaves at once — a channel released before a neighbour takes it is no
// violation, two neighbours holding it are, named by cell and channel.
func TestViolationNamesTheCoChannelPair(t *testing.T) {
	grid := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	n, err := netrun.NewNode(grid, chanset.MustAssign(grid, 70), grantZeroFactory{}, "", netrun.Config{TickDuration: 50 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	request := func(cell hexgrid.CellID) {
		t.Helper()
		done := make(chan netrun.Result, 1)
		n.Request(cell, func(r netrun.Result) { done <- r })
		select {
		case r := <-done:
			if !r.Granted || r.Ch != 0 {
				t.Fatalf("cell %d: %+v, want channel 0", cell, r)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("timeout")
		}
	}
	cell := grid.InteriorCell()
	neighbor := grid.Interference(cell)[0]
	request(cell)
	n.Release(cell, 0)
	request(neighbor)
	if err := n.Violation(); err != nil {
		t.Fatalf("a channel released before a neighbour took it: %v", err)
	}
	request(cell)
	want := fmt.Sprintf("netrun: cells %d and %d both hold channel 0", cell, neighbor)
	if err := n.Violation(); err == nil || err.Error() != want {
		t.Errorf("Violation() = %v, want %q", err, want)
	}
}

// TestScrapeAfterCloseReturns: a node's protocol families are its hosted
// stations' own counts, read on its loop; a scrape after Close, with the
// loop stopped, returns the counts Close read instead of waiting for a
// loop that will never run it.
func TestScrapeAfterCloseReturns(t *testing.T) {
	grid := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	assign := chanset.MustAssign(grid, 21)
	factory, err := registry.Build("adaptive", grid, assign, registry.Config{Latency: 10})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	n, err := netrun.NewNode(grid, assign, factory, "", netrun.Config{LatencyTicks: 10, Seed: 1, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	done := make(chan netrun.Result, 1)
	n.Request(grid.InteriorCell(), func(r netrun.Result) { done <- r })
	select {
	case r := <-done:
		if !r.Granted {
			t.Fatal("a lone request was denied")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("request neither granted nor denied")
	}
	const local = `adca_grants_total{path="local"}`
	if got := reg.Snapshot()[local]; got != 1 {
		t.Fatalf("running: %s = %v, want 1", local, got)
	}
	n.Close()
	scraped := make(chan map[string]float64, 1)
	go func() { scraped <- reg.Snapshot() }()
	select {
	case snap := <-scraped:
		if got := snap[local]; got != 1 {
			t.Errorf("closed: %s = %v, want 1", local, got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a scrape after Close did not return")
	}
}
