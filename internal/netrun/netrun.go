// Package netrun is the wall-clock runtime: a node runs its hosted
// stations on one event loop (transport.Live), beside the goroutines
// that read and write its TCP links; wall-clock delays, real
// parallelism between nodes and between a loop and its I/O, the same
// allocator code that runs on the DES. It exists to validate the
// protocol under true concurrency (race detector, nondeterministic
// interleavings) and to power the demos; the measured experiments use
// the deterministic DES driver instead.
//
// The paper's stations share nothing and talk over reliable FIFO links
// of bounded latency, so where two stations sit is a property of the
// link, not of the runtime. A Node hosts a set of cells: a message for
// a hosted cell goes onto the node's loop, one for any other cell goes
// out as a wire message of internal/message over TCP. A node that
// hosts every cell and listens nowhere is the in-process network
// (internal/livenet constructs exactly that); several listening nodes
// are the distributed one. The routing table (cell → address) is
// distributed out of band (it is static configuration, like the cell
// plan itself). Connections between nodes are dialed lazily and kept
// open; per-connection writes are serialized, and TCP ordering gives
// per-link FIFO.
//
// The node's routing fabric is a transport.Transport (nodeTransport),
// so the Faulty and Reliable decorators stack over it whatever the
// links are (Config.Fault / Config.Reliable).
package netrun

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/message"
	"repro/internal/obs"
	"repro/internal/reqbook"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Config describes one node: the cells it hosts and the links it gives
// them.
type Config struct {
	// Cells hosted by this node; nil hosts every cell of the grid.
	Cells []hexgrid.CellID
	// Delay is the modeled one-way latency, in wall time, of every
	// delivery to a hosted cell (0 = straight onto the loop). A
	// message that arrived over TCP waits it out on top of the wire's.
	Delay time.Duration
	// LatencyTicks is the T value reported to allocators (the adaptive
	// predictor works in ticks; one tick is mapped to TickDuration).
	LatencyTicks sim.Time
	// TickDuration maps ticks to wall time for Env.Now and the journal
	// (default 100µs).
	TickDuration time.Duration
	// Seed drives per-cell randomness.
	Seed uint64

	// Fault, when non-nil, injects drops/duplicates/reordering/jitter
	// into this node's outgoing traffic (local and remote alike). A
	// Reliable layer is stacked above automatically so the protocol
	// still sees reliable-FIFO links. Every node in a cluster should
	// carry the same reliability setting: sequence numbers stamped here
	// are consumed by the peer's Reliable layer.
	Fault *transport.FaultConfig
	// Reliable tunes the ack/retransmit layer; nil means defaults when
	// Fault is set, no layer otherwise.
	Reliable *transport.ReliableConfig
	// RequestTimeout, when positive, bounds each request's wall-clock
	// lifetime: a request not granted or denied in time completes as a
	// counted deadline denial (see Node.DeadlineDenials). A grant that
	// arrives after its deadline is released back automatically.
	RequestTimeout time.Duration

	// Obs, when non-nil, registers this node's runtime-, transport- and
	// protocol-level metrics as scrape-time collectors; the protocol
	// counts are the hosted stations' own (alloc.Tally), read on the loop.
	// Several nodes of one process may share a single registry:
	// same-named collectors sum at collection time, yielding cluster-wide
	// totals.
	Obs *obs.Registry
	// Journal, when non-nil, receives request lifecycle records
	// (request/result/deadline_deny), timestamped in ticks.
	Journal *obs.Journal
}

// Result is one completed request.
type Result struct {
	Cell    hexgrid.CellID
	Granted bool
	Ch      chanset.Channel
}

// layer is what every level of a node's stack is: a transport that can
// report quiescence.
type layer interface {
	transport.Transport
	transport.Idler
}

// Node hosts a set of stations on one event loop and speaks TCP to the
// nodes hosting the rest.
type Node struct {
	grid   *hexgrid.Grid
	cfg    Config
	ln     net.Listener    // nil when the node listens nowhere
	local  *transport.Live // the loop that runs every hosted cell
	fabric *nodeTransport  // routing fabric as a transport.Transport
	stack  layer           // top of the stack: what stations talk to
	rel    *transport.Reliable
	hosted map[hexgrid.CellID]alloc.Allocator

	// The loop's own: the request book (each hosted cell's requests in
	// submission order, a station handed only its cell's oldest) and,
	// with a RequestTimeout, the requests' deadlines, earliest first;
	// while there are any, timer is set for the earliest.
	book   reqbook.Book[Result]
	chains []reqbook.Chain // by cell
	due    []deadline
	timer  *time.Timer

	mu              sync.Mutex
	accepted        []net.Conn
	nextID          alloc.RequestID
	outst           int
	grants          uint64
	denies          uint64
	deadlineDenials uint64
	lateGrants      uint64
	abandoned       uint64
	badReleases     uint64
	// held is the committed holdings of the hosted cells, what the
	// node checks Theorem 1 against.
	held      *trace.Holdings
	violation error
	closed    bool
	// tally is the hosted stations' tally as Close read it, what a scrape
	// returns once the loop has stopped.
	tally alloc.Tally

	// netMu guards the routing table and peer set; the per-message send
	// path only ever takes it in read mode.
	netMu  sync.RWMutex
	routes map[hexgrid.CellID]string // cell → peer address
	peers  map[string]*peerConn

	start time.Time
	wg    sync.WaitGroup
}

// deadline is when request id, record rec of cell's chain, expires.
type deadline struct {
	at   time.Duration // since Node.start
	id   alloc.RequestID
	rec  int32
	cell hexgrid.CellID
}

// peerConn is one outgoing TCP link. Senders append messages to its
// queue; a dedicated writer goroutine (Node.writeLoop) dials the peer,
// then takes them a batch at a time, encodes them with a reused scratch
// buffer and flushes once per batch, so no sender waits on the network —
// not on the dial, not on a connection mutex — and a burst of messages
// costs one syscall, not one per message.
type peerConn struct {
	addr string
	q    *transport.Queue[message.Message] // closed when the link dies or shuts
	// ctx is cancelled by close: it stops the writer, aborts its dial and
	// closes its connection, which unblocks a write in progress.
	ctx    context.Context
	cancel context.CancelFunc
}

// dial opens a peer writer's connection. Tests swap it for a peer that
// never answers.
var dial = func(ctx context.Context, addr string) (net.Conn, error) {
	d := net.Dialer{Timeout: 5 * time.Second}
	return d.DialContext(ctx, "tcp", addr)
}

// close tears the link down; calling it again does nothing.
func (p *peerConn) close() {
	p.cancel()
	p.q.Close() // the node is closing: nothing waits on these
}

// NewNode builds a node hosting cfg.Cells of grid, starts its stations,
// and listens on addr ("127.0.0.1:0" for an ephemeral port, "" for no
// listener). Routes for remote cells must be installed with SetRoutes
// before the stations send to them. Callers must Close it.
func NewNode(grid *hexgrid.Grid, assign *chanset.Assignment, factory alloc.Factory, addr string, cfg Config) (*Node, error) {
	if cfg.TickDuration <= 0 {
		cfg.TickDuration = 100 * time.Microsecond
	}
	if cfg.LatencyTicks <= 0 {
		cfg.LatencyTicks = 10
	}
	if cfg.Fault != nil {
		if err := cfg.Fault.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.Cells == nil {
		cfg.Cells = make([]hexgrid.CellID, grid.NumCells())
		for i := range cfg.Cells {
			cfg.Cells[i] = hexgrid.CellID(i)
		}
	}
	var ln net.Listener
	if addr != "" {
		var err error
		if ln, err = net.Listen("tcp", addr); err != nil {
			return nil, fmt.Errorf("netrun: %w", err)
		}
	}
	n := &Node{
		grid:   grid,
		cfg:    cfg,
		ln:     ln,
		local:  transport.NewLive(cfg.Delay),
		hosted: make(map[hexgrid.CellID]alloc.Allocator, len(cfg.Cells)),
		chains: make([]reqbook.Chain, grid.NumCells()),
		routes: make(map[hexgrid.CellID]string),
		peers:  make(map[string]*peerConn),
		held:   trace.NewHoldings(grid, assign.NumChannels),
		start:  time.Now(),
	}
	n.timer = time.AfterFunc(time.Hour, func() { n.local.Do(n.cfg.Cells[0], n.expire) })
	n.timer.Stop()
	n.fabric = &nodeTransport{n: n}
	var top layer = n.fabric
	if cfg.Fault != nil {
		top = transport.NewFaulty(top, *cfg.Fault)
	}
	if cfg.Fault != nil || cfg.Reliable != nil {
		var rcfg transport.ReliableConfig
		if cfg.Reliable != nil {
			rcfg = *cfg.Reliable
		}
		n.rel = transport.NewReliable(top, rcfg)
		// A message that exhausts its retransmit budget means a dead
		// link; count it — the deadline watchdog converts the affected
		// requests into denials.
		n.rel.OnAbandon = func(message.Message) {
			n.mu.Lock()
			n.abandoned++
			n.mu.Unlock()
		}
		top = n.rel
	}
	n.stack = top
	for _, cell := range cfg.Cells {
		a := factory.New(cell)
		n.hosted[cell] = a
		n.stack.Attach(cell, a) // through the stack: reliability wraps the handler
	}
	n.local.Start()
	// Start must run on the loop so allocator state is never touched
	// cross-thread.
	var wg sync.WaitGroup
	wg.Add(len(cfg.Cells))
	for _, cell := range cfg.Cells {
		env := &nodeEnv{node: n, cell: cell, rand: sim.Substream(cfg.Seed, uint64(cell)+1)}
		n.local.Do(cell, func() { n.hosted[cell].Start(env); wg.Done() })
	}
	wg.Wait()
	if r := cfg.Obs; r != nil {
		r.CounterFunc("adca_requests_granted_total",
			"Channel requests completed with a grant.",
			func() float64 { return float64(n.Grants()) })
		r.CounterFunc("adca_requests_denied_total",
			"Channel requests completed with a denial (deadline denials included).",
			func() float64 { return float64(n.Denies()) })
		r.CounterFunc("adca_deadline_denials_total",
			"Requests denied by the RequestTimeout watchdog rather than the protocol.",
			func() float64 { return float64(n.DeadlineDenials()) })
		r.CounterFunc("adca_late_grants_total",
			"Grants that arrived after their deadline and were released back.",
			func() float64 { return float64(n.LateGrants()) })
		r.CounterFunc("adca_abandoned_messages_total",
			"Messages whose retransmit budget was exhausted (dead link).",
			func() float64 { return float64(n.Abandoned()) })
		r.CounterFunc("adca_send_errors_total",
			"Messages dropped: peer not dialed or written to, or a frame for a cell not hosted here.",
			func() float64 { return float64(n.SendErrors()) })
		r.GaugeFunc("adca_requests_outstanding",
			"Channel requests currently in flight.",
			func() float64 { return float64(n.Outstanding()) })
		transport.RegisterObs(r, n.stack.Stats)
		alloc.RegisterObs(r, n.tallies)
	}
	if ln != nil {
		n.wg.Add(1)
		go n.acceptLoop()
	}
	return n, nil
}

// Addr returns the node's listen address, "" when it has none.
func (n *Node) Addr() string {
	if n.ln == nil {
		return ""
	}
	return n.ln.Addr().String()
}

// Grid returns the cell layout.
func (n *Node) Grid() *hexgrid.Grid { return n.grid }

// SetRoutes installs the cell → address table for remote cells.
func (n *Node) SetRoutes(routes map[hexgrid.CellID]string) {
	n.netMu.Lock()
	defer n.netMu.Unlock()
	for c, a := range routes {
		n.routes[c] = a
	}
}

// Close shuts the node down: reliability timers first (so nothing
// retransmits into a dead fabric), then listener, peer connections,
// stations; the journal is flushed last.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	n.timer.Stop()
	if n.rel != nil {
		n.rel.Close()
	}
	if n.ln != nil {
		n.ln.Close()
	}
	n.netMu.Lock()
	for _, p := range n.peers {
		p.close() // unblock senders and tell the writer to exit
	}
	n.netMu.Unlock()
	n.mu.Lock()
	for _, c := range n.accepted {
		c.Close() // unblock readLoops waiting on remote peers
	}
	n.mu.Unlock()
	n.wg.Wait()
	if n.cfg.Obs != nil {
		t := n.tallies() // the stations' last counts, for scrapes after Close
		n.mu.Lock()
		n.tally = t
		n.mu.Unlock()
	}
	n.local.Stop()
	_ = n.cfg.Journal.Flush() // the journal keeps its first error for its owner's Close
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.accepted = append(n.accepted, conn)
		n.mu.Unlock()
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

func (n *Node) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer conn.Close()
	dec := message.NewReader(bufio.NewReader(conn))
	for {
		m, err := dec.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !n.isClosed() {
				// Connection torn down mid-message during shutdown is
				// expected; anything else indicates a wire bug.
				fmt.Fprintf(os.Stderr, "netrun: read error: %v\n", err)
			}
			return
		}
		// Incoming wire messages enter above the fabric so the
		// reliability layer (if any) sees their sequence numbers.
		n.fabric.deliver(m)
	}
}

func (n *Node) isClosed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed
}

// nodeTransport adapts the node's routing fabric — the loop for hosted
// cells plus lazily-dialed TCP peers — to transport.Transport, so Faulty
// and Reliable stack over it whatever the links are. Attach is called
// through the stack top, which means the handlers the loop runs already
// carry the reliability layer's receive side.
type nodeTransport struct {
	n *Node

	// Traffic accounting is atomic: one counter update per message, no
	// critical sections on the send path (stats used to take a mutex
	// twice per message — once for the count, once for the bytes).
	total  atomic.Uint64
	bytes  atomic.Uint64
	byKind [message.NumKinds]atomic.Uint64
	// wirePending counts messages accepted for a peer queue but not yet
	// written out or dropped, so Idle covers the writer pipelines.
	wirePending atomic.Int64
	// sendErrors counts messages dropped because their link is dead —
	// the peer could not be dialed (it is down or shutting down) or a
	// write to it failed — because their cell has no route, or because
	// they arrived for a cell this node does not host. Like a loss on
	// the wire, the drop is the reliability layer's problem — never a
	// panic.
	sendErrors atomic.Uint64
}

// dropDead counts k dropped messages and, when they are the node's
// first, logs why to standard error — once, so a dead or misconfigured
// peer does not flood it.
func (t *nodeTransport) dropDead(k uint64, format string, args ...any) {
	if t.sendErrors.Add(k) == k && !t.n.isClosed() {
		fmt.Fprintf(os.Stderr, "netrun: "+format+" (counted in SendErrors)\n", args...)
	}
}

// Attach implements transport.Transport: the loop runs h for the hosted
// cell.
func (t *nodeTransport) Attach(id hexgrid.CellID, h transport.Handler) { t.n.local.Attach(id, h) }

// Send implements transport.Transport: local destinations go onto the
// node's loop, remote ones onto the peer writer's queue. A message for a
// cell with no route is a counted drop, like one for a dead link.
func (t *nodeTransport) Send(m message.Message) {
	t.total.Add(1)
	if int(m.Kind) < len(t.byKind) {
		t.byKind[m.Kind].Add(1)
	}
	n := t.n
	if _, ok := n.hosted[m.To]; ok {
		n.local.Send(m)
		return
	}
	n.netMu.RLock()
	addr, ok := n.routes[m.To]
	n.netMu.RUnlock()
	if !ok {
		t.dropDead(1, "no route to cell %d; dropping traffic for unrouted cells", m.To)
		return
	}
	p := n.peer(addr)
	t.wirePending.Add(1)
	if !p.q.Put(m) {
		t.wirePending.Add(-1)
		t.dropDead(1, "link to %s is down; dropping traffic for dead links", addr)
	}
}

// deliver hands a frame read off the wire to the node's loop. The
// hosted check is what stands between a stale routing table or a
// hostile peer and Live's panic on an unattached cell.
func (t *nodeTransport) deliver(m message.Message) {
	if _, ok := t.n.hosted[m.To]; !ok {
		t.dropDead(1, "frame for cell %d, which is not hosted here; dropping such frames", m.To)
		return
	}
	t.n.local.Send(m)
}

// Stats implements transport.Transport.
func (t *nodeTransport) Stats() transport.Stats {
	var s transport.Stats
	s.Total = t.total.Load()
	s.Bytes = t.bytes.Load()
	for i := range s.ByKind {
		s.ByKind[i] = t.byKind[i].Load()
	}
	return s
}

// Idle implements transport.Idler: the loop drained and no
// message parked in a peer writer queue.
func (t *nodeTransport) Idle() bool {
	return t.wirePending.Load() == 0 && t.n.local.Idle()
}

// peer returns the link to addr, registering it and starting its writer
// on first use. The writer dials, so the caller — the node's loop, as a
// rule — never waits on the network.
func (n *Node) peer(addr string) *peerConn {
	n.netMu.RLock()
	p, ok := n.peers[addr]
	n.netMu.RUnlock()
	if ok {
		return p
	}
	n.netMu.Lock()
	if p, ok = n.peers[addr]; ok {
		n.netMu.Unlock()
		return p
	}
	p = &peerConn{addr: addr, q: transport.NewQueue[message.Message]()}
	p.ctx, p.cancel = context.WithCancel(context.Background())
	n.peers[addr] = p
	n.netMu.Unlock()
	// The closed check and wg.Add must be atomic with respect to Close
	// (which sets closed before waiting on wg), or the writer could be
	// spawned after the final wg.Wait.
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		p.close() // raced with Close after registration
		return p
	}
	n.wg.Add(1)
	n.mu.Unlock()
	go n.writeLoop(p)
	return p
}

// writeLoop is the single writer for one peer link: it dials the peer,
// then takes the queue a batch at a time and flushes once per batch (the
// loop queues a whole fan-out faster than the writer wakes, so one
// syscall usually carries it). TCP ordering plus the single consumer
// preserve per-link FIFO. A failed dial or write kills the link: the
// queue is closed, and every message it loses — in the batch being
// written, queued, or put later — is counted in SendErrors, the
// reliability layer's problem like a loss on the wire. A link that was
// never dialed also leaves the peer table, so a later send dials again.
func (n *Node) writeLoop(p *peerConn) {
	defer n.wg.Done()
	defer p.cancel()
	conn, err := dial(p.ctx, p.addr)
	if err != nil {
		n.linkDied(p, err, 0)
		n.netMu.Lock()
		delete(n.peers, p.addr) // after the count: a link gone from the table has counted all it lost
		n.netMu.Unlock()
		return
	}
	defer conn.Close()
	defer context.AfterFunc(p.ctx, func() { conn.Close() })()
	w := bufio.NewWriter(conn)
	var buf []byte
	var batch []message.Message
	for {
		select {
		case <-p.q.Wake():
		case <-p.ctx.Done():
			w.Flush()
			return
		}
		batch = p.q.Take(batch)
		for _, m := range batch {
			buf = message.Encode(buf[:0], m)
			if _, err := w.Write(buf); err != nil {
				n.linkDied(p, err, len(batch))
				return
			}
			n.fabric.bytes.Add(uint64(len(buf)))
		}
		if err := w.Flush(); err != nil {
			n.linkDied(p, err, len(batch))
			return
		}
		n.fabric.wirePending.Add(-int64(len(batch)))
		clear(batch)
	}
}

// linkDied closes p's queue after a failed dial or write and counts what
// the link lost: the batch it was writing (unwritten messages, none for a
// dial) and everything queued.
func (n *Node) linkDied(p *peerConn, err error, unwritten int) {
	lost := unwritten + p.q.Close()
	n.fabric.wirePending.Add(-int64(lost))
	if lost > 0 {
		n.fabric.dropDead(uint64(lost), "link to %s: %v; dropping traffic for dead links", p.addr, err)
	}
}

// SendErrors returns the number of messages dropped: the peer could not
// be dialed, a write to it failed, the cell had no route, or the frame
// was for a cell this node does not host.
func (n *Node) SendErrors() uint64 { return n.fabric.sendErrors.Load() }

// FabricStats returns the raw fabric accounting (message and wire-byte
// counts below the reliability layer), for benchmark harnesses.
func (n *Node) FabricStats() transport.Stats { return n.fabric.Stats() }

// Stats returns the node's transport accounting measured at the top of
// the stack: fabric traffic plus fault-injection and reliability
// counters.
func (n *Node) Stats() transport.Stats { return n.stack.Stats() }

// Request submits a channel request at a hosted cell; cb (may be nil)
// runs on the node's loop when the request completes, whether by a
// grant, a denial or its deadline.
//
// cb must not block on the node: the loop runs every hosted cell, so a
// callback that calls InUse or WaitSettled, or waits for another
// request's callback, deadlocks the node. Hand the result off — send it
// on a buffered channel, arm a timer — and return.
func (n *Node) Request(cell hexgrid.CellID, cb func(Result)) {
	if _, ok := n.hosted[cell]; !ok {
		panic(fmt.Sprintf("netrun: cell %d not hosted here", cell))
	}
	n.mu.Lock()
	n.nextID++
	id := n.nextID
	n.outst++
	due := deadline{id: id, cell: cell}
	if n.cfg.RequestTimeout > 0 {
		due.at = time.Since(n.start) + n.cfg.RequestTimeout
	}
	n.mu.Unlock()
	if j := n.cfg.Journal; j != nil {
		j.Emit(n.nowTicks(), "request", int(cell), obs.FI("req", int64(id)))
	}
	n.local.Do(cell, func() { n.submit(due, cb) })
}

// submit books a request on the loop and hands it to its station if it
// is the cell's oldest. A deadline joins the queue in order: from the
// back, where a fixed RequestTimeout puts every one.
func (n *Node) submit(due deadline, cb func(Result)) {
	c := &n.chains[due.cell]
	due.rec = n.book.Push(c, reqbook.Rec{ID: due.id}, cb)
	if due.at > 0 {
		i := len(n.due)
		for i > 0 && n.due[i-1].at > due.at {
			i--
		}
		if n.due = slices.Insert(n.due, i, due); i == 0 {
			n.arm(due.at)
		}
	}
	n.book.HandOver(c, n.hosted[due.cell])
}

// arm sets the node's timer for at.
func (n *Node) arm(at time.Duration) { n.timer.Reset(at - time.Since(n.start)) }

// expire runs on the loop when the timer fires: every request past its
// deadline and still unanswered completes as a counted denial, so the
// caller (and WaitSettled) never hang on a wedged link. One that has
// not reached its station never will; the station's late answer to one
// it holds is absorbed in complete (a late grant is released back).
func (n *Node) expire() {
	now := time.Since(n.start)
	for len(n.due) > 0 {
		d := n.due[0]
		if r := n.book.At(d.rec); r.ID == d.id { // else concluded already
			if d.at > now {
				n.arm(d.at)
				return
			}
			fn := n.book.Answer(d.rec)
			n.mu.Lock()
			n.outst--
			n.denies++
			n.deadlineDenials++
			n.mu.Unlock()
			if j := n.cfg.Journal; j != nil {
				j.Emit(n.nowTicks(), "deadline_deny", int(d.cell), obs.FI("req", int64(d.id)))
			}
			if fn != nil {
				fn(Result{Cell: d.cell, Granted: false, Ch: chanset.NoChannel})
			}
		}
		n.due = n.due[1:]
	}
}

// Grants reports requests completed with a grant at this node.
func (n *Node) Grants() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.grants
}

// Denies reports requests completed with a denial at this node
// (deadline denials included).
func (n *Node) Denies() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.denies
}

// nowTicks maps wall time since start onto virtual ticks (the journal's
// time base, matching Env.Now).
func (n *Node) nowTicks() int64 {
	return int64(time.Since(n.start) / n.cfg.TickDuration)
}

// DeadlineDenials reports requests denied by the RequestTimeout
// watchdog rather than by the protocol.
func (n *Node) DeadlineDenials() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.deadlineDenials
}

// LateGrants reports grants that arrived after their deadline denial and
// were released back.
func (n *Node) LateGrants() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lateGrants
}

// Abandoned reports messages whose retransmit budget was exhausted
// (zero without a reliability layer).
func (n *Node) Abandoned() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.abandoned
}

// BadReleases reports Release calls the allocator rejected.
func (n *Node) BadReleases() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.badReleases
}

// Release returns a channel at a hosted cell. A release the allocator
// rejects (channel not held) is counted, not fatal: one misbehaving
// caller must not take down the signaling plane.
func (n *Node) Release(cell hexgrid.CellID, ch chanset.Channel) {
	n.mu.Lock()
	if n.held.Row(cell).Contains(ch) { // a channel outside the spectrum is in no row
		n.held.Drop(cell, ch)
	}
	n.mu.Unlock()
	n.local.Do(cell, func() { n.release(cell, ch) })
}

// release hands ch back to cell's allocator, on the loop.
func (n *Node) release(cell hexgrid.CellID, ch chanset.Channel) {
	if err := n.hosted[cell].Release(ch); err != nil {
		n.mu.Lock()
		n.badReleases++
		n.mu.Unlock()
	}
}

// Outstanding returns in-flight request count at this node.
func (n *Node) Outstanding() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.outst
}

// InUse snapshots a hosted cell's channels, read on the loop (so never
// from a Request callback).
func (n *Node) InUse(cell hexgrid.CellID) chanset.Set {
	done := make(chan chanset.Set, 1)
	n.local.Do(cell, func() { done <- n.hosted[cell].InUse().Clone() })
	return <-done
}

// tallies sums the hosted stations' tallies, read on the loop as InUse
// reads a station; once the loop has stopped, it returns those Close
// read.
func (n *Node) tallies() alloc.Tally {
	done := make(chan alloc.Tally, 1)
	n.local.Do(n.cfg.Cells[0], func() {
		var t alloc.Tally
		for _, a := range n.hosted {
			t.Add(alloc.TallyOf(a))
		}
		done <- t
	})
	select {
	case t := <-done:
		return t
	case <-n.local.Stopped():
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.tally
	}
}

// Violation returns the first co-channel interference detected among
// the committed outcomes of this node's hosted cells, or nil.
func (n *Node) Violation() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.violation
}

// WaitSettled blocks until no request is outstanding at this node and
// its whole transport stack is idle, or the timeout elapses; reports
// whether it settled.
func (n *Node) WaitSettled(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if n.Outstanding() == 0 && n.stack.Idle() {
			return true
		}
		time.Sleep(200 * time.Microsecond)
	}
	return false
}

// complete records the station's answer (what) to request id and runs
// its callback, on the loop (via env.Granted / env.Denied), then hands
// the station the cell's next request. An answer to a request already
// denied by its deadline runs nothing; a late grant hands its channel
// back — we are on the loop, so the release is a direct call.
func (n *Node) complete(cell hexgrid.CellID, what string, id alloc.RequestID, granted bool, ch chanset.Channel) {
	c := &n.chains[cell]
	if q, fn := n.book.Conclude(c, cell, what, id); q.Answered {
		if granted {
			n.mu.Lock()
			n.lateGrants++
			n.mu.Unlock()
			n.release(cell, ch)
		}
	} else {
		n.mu.Lock()
		n.outst--
		if granted {
			n.grants++
			n.held.Hold(cell, ch)
			// Committed-outcome interference check (Theorem 1 over the
			// node's book of record).
			if j, clash := n.held.Clash(cell, ch); clash && n.violation == nil {
				n.violation = fmt.Errorf("netrun: cells %d and %d both hold channel %d", cell, j, ch)
			}
		} else {
			n.denies++
		}
		n.mu.Unlock()
		if j := n.cfg.Journal; j != nil {
			g := int64(0)
			if granted {
				g = 1
			}
			j.Emit(n.nowTicks(), "result", int(cell),
				obs.FI("req", int64(id)), obs.FI("granted", g), obs.FI("ch", int64(ch)))
		}
		if fn != nil {
			fn(Result{Cell: cell, Granted: granted, Ch: ch})
		}
	}
	n.book.Finish(c, n.hosted[cell])
}

// nodeEnv implements alloc.Env over the node. All methods are invoked
// on the node's loop, from the owning station's handlers.
type nodeEnv struct {
	node *Node
	cell hexgrid.CellID
	rand *sim.Rand
}

func (e *nodeEnv) ID() hexgrid.CellID          { return e.cell }
func (e *nodeEnv) Neighbors() []hexgrid.CellID { return e.node.grid.Interference(e.cell) }
func (e *nodeEnv) Latency() sim.Time           { return e.node.cfg.LatencyTicks }
func (e *nodeEnv) Rand() *sim.Rand             { return e.rand }
func (e *nodeEnv) Now() sim.Time               { return sim.Time(e.node.nowTicks()) }

func (e *nodeEnv) Send(m message.Message) {
	m.From = e.cell
	// The message outlives this call (the loop's queue, the peer
	// writer, the retransmit queue): take the copy alloc.Env.Send owes a
	// Use that is only a view.
	if len(m.Use.Words()) > 0 {
		m.Use = m.Use.Clone()
	}
	e.node.stack.Send(m)
}

func (e *nodeEnv) Began(id alloc.RequestID) {
	e.node.book.Check(&e.node.chains[e.cell], e.cell, "start", id)
}

func (e *nodeEnv) Granted(id alloc.RequestID, ch chanset.Channel) {
	e.node.complete(e.cell, "grant", id, true, ch)
}

func (e *nodeEnv) Denied(id alloc.RequestID) {
	e.node.complete(e.cell, "denial", id, false, chanset.NoChannel)
}

// Moved implements alloc.Env. Channel repacking needs runtime-side
// release redirection, which the wall-clock runtime does not provide —
// build repacking scenarios on the DES driver.
func (e *nodeEnv) Moved(from, to chanset.Channel) {
	panic("netrun: channel repacking is not supported on the wall-clock runtime")
}
