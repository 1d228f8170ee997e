// Package netrun is the wall-clock runtime: one goroutine per hosted
// station (transport.Live), wall-clock delays, real parallelism, the
// same allocator code that runs on the DES. It exists to validate the
// protocol under true concurrency (race detector, nondeterministic
// interleavings) and to power the demos; the measured experiments use
// the deterministic DES driver instead.
//
// The paper's stations share nothing and talk over reliable FIFO links
// of bounded latency, so where two stations sit is a property of the
// link, not of the runtime. A Node hosts a set of cells: a message for
// a hosted cell goes to that cell's mailbox, one for any other cell
// goes out as a wire message of internal/message over TCP. A node that
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
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/message"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Config describes one node: the cells it hosts and the links it gives
// them.
type Config struct {
	// Cells hosted by this node; nil hosts every cell of the grid.
	Cells []hexgrid.CellID
	// Delay is the modeled one-way latency, in wall time, of every
	// delivery to a hosted cell (0 = straight into the mailbox). A
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

	// Obs, when non-nil, registers this node's runtime- and
	// transport-level metrics as scrape-time collectors. Several nodes
	// of one process may share a single registry: same-named collectors
	// sum at collection time, yielding cluster-wide totals. The DES
	// driver registers some of the same families as plain counters, and
	// mixing the two shapes in one registry panics by design.
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

// pendingReq tracks one in-flight request.
type pendingReq struct {
	cell  hexgrid.CellID
	cb    func(Result)
	timer *time.Timer // nil when no RequestTimeout is configured
}

// Node hosts a set of stations and speaks TCP to the nodes hosting the
// rest.
type Node struct {
	grid   *hexgrid.Grid
	cfg    Config
	ln     net.Listener    // nil when the node listens nowhere
	local  *transport.Live // mailboxes for hosted cells
	fabric *nodeTransport  // routing fabric as a transport.Transport
	stack  layer           // top of the stack: what stations talk to
	rel    *transport.Reliable
	hosted map[hexgrid.CellID]alloc.Allocator

	mu              sync.Mutex
	accepted        []net.Conn
	pending         map[alloc.RequestID]*pendingReq
	expired         map[alloc.RequestID]bool // deadline fired, outcome pending
	nextID          alloc.RequestID
	outst           int
	grants          uint64
	denies          uint64
	deadlineDenials uint64
	lateGrants      uint64
	abandoned       uint64
	badReleases     uint64
	holding         []chanset.Set // committed holdings per hosted cell (checker)
	violation       error
	closed          bool

	// netMu guards the routing table and peer set; the per-message send
	// path only ever takes it in read mode.
	netMu  sync.RWMutex
	routes map[hexgrid.CellID]string // cell → peer address
	peers  map[string]*peerConn

	start time.Time
	wg    sync.WaitGroup
}

// peerConn is one outgoing TCP link. Senders enqueue decoded messages;
// a dedicated writer goroutine (Node.writeLoop) encodes them with a
// reused scratch buffer and flushes once per drained batch, so
// concurrent senders never serialize on a connection mutex and a burst
// of messages costs one syscall, not one per message.
type peerConn struct {
	conn net.Conn
	q    chan message.Message
	done chan struct{} // closed by close(); unblocks senders and the writer

	closeOnce sync.Once
}

// close tears the link down exactly once (Node.Close and the dial/close
// race in Node.peer can both reach it).
func (p *peerConn) close() {
	p.closeOnce.Do(func() {
		close(p.done)
		p.conn.Close()
	})
}

// peerQueueDepth bounds each outgoing link's send queue; a full queue
// applies backpressure to senders (blocking, like the old per-message
// connection mutex, but only once the link is genuinely saturated).
const peerQueueDepth = 1024

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
		grid:    grid,
		cfg:     cfg,
		ln:      ln,
		local:   transport.NewLive(cfg.Delay, 0),
		hosted:  make(map[hexgrid.CellID]alloc.Allocator, len(cfg.Cells)),
		routes:  make(map[hexgrid.CellID]string),
		peers:   make(map[string]*peerConn),
		pending: make(map[alloc.RequestID]*pendingReq),
		expired: make(map[alloc.RequestID]bool),
		holding: make([]chanset.Set, grid.NumCells()),
		start:   time.Now(),
	}
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
	// Start must run on each station's goroutine so allocator state is
	// never touched cross-thread.
	var wg sync.WaitGroup
	for _, cell := range cfg.Cells {
		cell := cell
		env := &nodeEnv{node: n, cell: cell, rand: sim.Substream(cfg.Seed, uint64(cell)+1)}
		wg.Add(1)
		n.local.Do(cell, func() {
			n.hosted[cell].Start(env)
			wg.Done()
		})
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
				fmt.Printf("netrun: read error: %v\n", err)
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

// nodeTransport adapts the node's routing fabric — local mailboxes plus
// lazily-dialed TCP peers — to transport.Transport, so Faulty and
// Reliable stack over it whatever the links are. Attach is called
// through the stack top, which means the handlers the mailboxes hold
// already carry the reliability layer's receive side.
type nodeTransport struct {
	n *Node

	// Traffic accounting is atomic: one counter update per message, no
	// critical sections on the send path (stats used to take a mutex
	// twice per message — once for the count, once for the bytes).
	total  atomic.Uint64
	bytes  atomic.Uint64
	byKind [message.NumKinds]atomic.Uint64
	// wirePending counts messages accepted for a peer queue but not yet
	// written out, so Idle covers the writer pipelines.
	wirePending atomic.Int64
	// sendErrors counts messages dropped because their link is dead —
	// the peer could not be dialed (it is down or shutting down) or a
	// write to it failed — or because they arrived for a cell this node
	// does not host. Like a loss on the wire, the drop is the
	// reliability layer's problem — never a panic.
	sendErrors atomic.Uint64
}

// dropDead counts one dropped message and reports whether it is the
// node's first, which callers log so a dead or misconfigured peer does
// not flood the output.
func (t *nodeTransport) dropDead() (first bool) {
	return t.sendErrors.Add(1) == 1 && !t.n.isClosed()
}

// Attach implements transport.Transport: the hosted cell gets its
// mailbox, with h behind it.
func (t *nodeTransport) Attach(id hexgrid.CellID, h transport.Handler) { t.n.local.Attach(id, h) }

// Send implements transport.Transport: local destinations go through the
// hosted cell's mailbox, remote ones onto the peer writer's queue.
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
		panic(fmt.Sprintf("netrun: no route to cell %d", m.To))
	}
	p, err := n.peer(addr)
	if err != nil {
		// The peer is down or shutting down. No link was registered,
		// so a later send dials again.
		if t.dropDead() {
			fmt.Printf("netrun: dial %s: %v; dropping traffic for dead links (counted in SendErrors)\n", addr, err)
		}
		return
	}
	t.wirePending.Add(1)
	select {
	case p.q <- m:
	case <-p.done:
		t.wirePending.Add(-1) // shutdown race: message dropped
	}
}

// deliver hands a frame read off the wire to its cell's mailbox. The
// hosted check is what stands between a stale routing table or a
// hostile peer and Live's panic on an unattached cell.
func (t *nodeTransport) deliver(m message.Message) {
	if _, ok := t.n.hosted[m.To]; !ok {
		if t.dropDead() {
			fmt.Printf("netrun: frame for cell %d, which is not hosted here; dropping such frames (counted in SendErrors)\n", m.To)
		}
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

// Idle implements transport.Idler: local mailboxes drained and no
// message parked in a peer writer queue.
func (t *nodeTransport) Idle() bool {
	return t.wirePending.Load() == 0 && t.n.local.Idle()
}

// peer returns the connection to addr, dialing it on first use. Dials
// run outside the lock, so concurrent first senders may race; the loser
// closes its extra connection and adopts the winner's.
func (n *Node) peer(addr string) (*peerConn, error) {
	n.netMu.RLock()
	p, ok := n.peers[addr]
	n.netMu.RUnlock()
	if ok {
		return p, nil
	}
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	p = &peerConn{
		conn: conn,
		q:    make(chan message.Message, peerQueueDepth),
		done: make(chan struct{}),
	}
	n.netMu.Lock()
	if existing, ok := n.peers[addr]; ok {
		n.netMu.Unlock()
		conn.Close() // lost the dial race
		return existing, nil
	}
	n.peers[addr] = p
	n.netMu.Unlock()
	// The closed check and wg.Add must be atomic with respect to Close
	// (which sets closed before waiting on wg), or the writer could be
	// spawned after the final wg.Wait.
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		p.close() // raced with Close after registration
		return p, nil
	}
	n.wg.Add(1)
	n.mu.Unlock()
	go n.writeLoop(p)
	return p, nil
}

// writeLoop is the single writer for one peer link: it encodes queued
// messages into a reused scratch buffer and flushes once per drained
// batch. TCP ordering plus the single consumer preserve per-link FIFO.
func (n *Node) writeLoop(p *peerConn) {
	defer n.wg.Done()
	defer p.conn.Close()
	w := bufio.NewWriter(p.conn)
	buf := make([]byte, 0, 512)
	for {
		var m message.Message
		select {
		case m = <-p.q:
		case <-p.done:
			w.Flush()
			return
		}
		for {
			buf = message.Encode(buf[:0], m)
			if _, err := w.Write(buf); err != nil {
				n.fabric.wirePending.Add(-1)
				n.deadLink(p, err)
				return
			}
			n.fabric.bytes.Add(uint64(len(buf)))
			n.fabric.wirePending.Add(-1)
			// Coalesce: keep encoding whatever is already queued and
			// pay for one Flush per batch instead of one per message.
			select {
			case m = <-p.q:
				continue
			default:
			}
			break
		}
		if err := w.Flush(); err != nil {
			n.deadLink(p, err)
			return
		}
	}
}

// deadLink handles a failed write: it counts the lost message, then
// discards (and counts) queued traffic for the link until shutdown so
// senders never block on a connection that stopped writing. Losses are
// the reliability layer's problem, exactly like losses on the wire.
func (n *Node) deadLink(p *peerConn, err error) {
	if n.fabric.dropDead() {
		fmt.Printf("netrun: write to %s: %v; dropping traffic for dead links (counted in SendErrors)\n", p.conn.RemoteAddr(), err)
	}
	for {
		select {
		case <-p.q:
			n.fabric.wirePending.Add(-1)
			n.fabric.sendErrors.Add(1)
		case <-p.done:
			return
		}
	}
}

// MessagesSent returns the number of messages this node put on the
// fabric (local and remote; with a reliability layer this includes acks
// and retransmits — they are real traffic).
func (n *Node) MessagesSent() uint64 { return n.fabric.Stats().Total }

// SendErrors returns the number of messages dropped: the peer could not
// be dialed, a write to it failed, or the frame was for a cell this
// node does not host.
func (n *Node) SendErrors() uint64 { return n.fabric.sendErrors.Load() }

// FabricStats returns the raw fabric accounting (message and wire-byte
// counts below the reliability layer), for benchmark harnesses.
func (n *Node) FabricStats() transport.Stats { return n.fabric.Stats() }

// Stats returns the node's transport accounting measured at the top of
// the stack: fabric traffic plus fault-injection and reliability
// counters.
func (n *Node) Stats() transport.Stats { return n.stack.Stats() }

// Request submits a channel request at a hosted cell; cb (may be nil) is
// invoked when the request completes — on the station's goroutine for a
// normal grant/denial, on a timer goroutine for a deadline denial.
func (n *Node) Request(cell hexgrid.CellID, cb func(Result)) {
	if _, ok := n.hosted[cell]; !ok {
		panic(fmt.Sprintf("netrun: cell %d not hosted here", cell))
	}
	n.mu.Lock()
	n.nextID++
	id := n.nextID
	p := &pendingReq{cell: cell, cb: cb}
	n.pending[id] = p
	n.outst++
	if n.cfg.RequestTimeout > 0 {
		p.timer = time.AfterFunc(n.cfg.RequestTimeout, func() { n.expire(id) })
	}
	n.mu.Unlock()
	if j := n.cfg.Journal; j != nil {
		j.Emit(n.nowTicks(), "request", int(cell), obs.FI("req", int64(id)))
	}
	n.local.Do(cell, func() { n.hosted[cell].Request(id) })
}

// expire fires when a request overstays RequestTimeout: it completes as
// a counted denial so the caller (and WaitSettled) never hang on a
// wedged link. The protocol may still conclude later; a late grant is
// released back in complete.
func (n *Node) expire(id alloc.RequestID) {
	n.mu.Lock()
	p := n.pending[id]
	if p == nil {
		n.mu.Unlock()
		return // completed normally just before the timer fired
	}
	delete(n.pending, id)
	n.expired[id] = true
	n.outst--
	n.denies++
	n.deadlineDenials++
	n.mu.Unlock()
	if j := n.cfg.Journal; j != nil {
		j.Emit(n.nowTicks(), "deadline_deny", int(p.cell), obs.FI("req", int64(id)))
	}
	if p.cb != nil {
		p.cb(Result{Cell: p.cell, Granted: false, Ch: chanset.NoChannel})
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
	n.holding[cell].Remove(ch)
	n.mu.Unlock()
	n.local.Do(cell, func() { n.release(cell, ch) })
}

// release hands ch back to cell's allocator, on the station's goroutine.
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

// InUse snapshots a hosted cell's channels (runs on its goroutine).
func (n *Node) InUse(cell hexgrid.CellID) chanset.Set {
	done := make(chan chanset.Set, 1)
	n.local.Do(cell, func() { done <- n.hosted[cell].InUse().Clone() })
	return <-done
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

// complete records a finished request and runs its callback. It runs on
// the granting cell's station goroutine (via env.Granted / env.Denied).
func (n *Node) complete(cell hexgrid.CellID, id alloc.RequestID, granted bool, ch chanset.Channel) {
	n.mu.Lock()
	p := n.pending[id]
	if p == nil {
		// The deadline watchdog already completed this request as a
		// denial. A late grant must hand its channel back — we are on
		// the station's goroutine, so the release is a direct call.
		late := n.expired[id] && granted
		delete(n.expired, id)
		if late {
			n.lateGrants++
		}
		n.mu.Unlock()
		if late {
			n.release(cell, ch)
		}
		return
	}
	if p.timer != nil {
		p.timer.Stop()
	}
	delete(n.pending, id)
	n.outst--
	if granted {
		n.grants++
		n.holding[cell].Add(ch)
		// Committed-outcome interference check (Theorem 1 over the
		// node's book of record).
		if n.violation == nil {
			for _, j := range n.grid.Interference(cell) {
				if n.holding[j].Contains(ch) {
					n.violation = fmt.Errorf("netrun: cells %d and %d both hold channel %d", cell, j, ch)
					break
				}
			}
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
	if p.cb != nil {
		p.cb(Result{Cell: cell, Granted: granted, Ch: ch})
	}
}

// nodeEnv implements alloc.Env over the node. All methods are invoked
// from the owning station's goroutine.
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
	// The message crosses goroutines (mailboxes, the peer writer, the
	// retransmit queue): take the copy alloc.Env.Send owes a Use that is
	// only a view.
	if len(m.Use.Words()) > 0 {
		m.Use = m.Use.Clone()
	}
	e.node.stack.Send(m)
}

func (e *nodeEnv) Began(alloc.RequestID) {}

func (e *nodeEnv) Granted(id alloc.RequestID, ch chanset.Channel) {
	e.node.complete(e.cell, id, true, ch)
}

func (e *nodeEnv) Denied(id alloc.RequestID) {
	e.node.complete(e.cell, id, false, chanset.NoChannel)
}

// Moved implements alloc.Env. Channel repacking needs runtime-side
// release redirection, which the wall-clock runtime does not provide —
// build repacking scenarios on the DES driver.
func (e *nodeEnv) Moved(from, to chanset.Channel) {
	panic("netrun: channel repacking is not supported on the wall-clock runtime")
}
