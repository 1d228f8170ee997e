// Package livenet runs an allocation scheme on the live concurrent
// runtime: one goroutine per mobile service station (internal/transport
// Live), wall-clock delays, real parallelism. It exists to validate the
// protocol under true concurrency (race detector, nondeterministic
// interleavings) and to power interactive demos; the measured
// experiments use the deterministic DES driver instead.
//
// The signaling plane may optionally be degraded with a fault model
// (Options.Fault): drops, duplicates, reordering and jitter are injected
// below a sequence-numbered ack/retransmit layer that restores the
// reliable-FIFO contract the protocol assumes. A per-request deadline
// (Options.RequestTimeout) converts any request stuck behind a dead link
// into a counted denial instead of a hung WaitSettled.
package livenet

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/message"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Options configure a live network.
type Options struct {
	// Delay is the modeled one-way message latency in wall time.
	Delay time.Duration
	// LatencyTicks is the T value reported to allocators (the adaptive
	// predictor works in ticks; one tick is mapped to TickDuration).
	LatencyTicks sim.Time
	// TickDuration maps virtual ticks to wall time for Env.Now and
	// Env.After (default 100µs per tick).
	TickDuration time.Duration
	// Seed drives per-cell randomness.
	Seed uint64
	// Mailbox sizes each station's queue.
	Mailbox int

	// Fault, when non-nil, injects drops/duplicates/reordering/jitter
	// into the signaling plane. A Reliable layer is stacked above it
	// automatically so the protocol still sees reliable-FIFO links.
	Fault *transport.FaultConfig
	// Reliable tunes the ack/retransmit layer. Nil means defaults when
	// Fault is set, and no reliability layer at all when the transport
	// is already reliable (Fault nil too).
	Reliable *transport.ReliableConfig
	// RequestTimeout, when positive, bounds each request's wall-clock
	// lifetime: a request not granted or denied in time completes as a
	// counted deadline denial (see Network.DeadlineDenials). A grant
	// that arrives after its deadline is released back automatically.
	RequestTimeout time.Duration

	// Obs, when non-nil, registers runtime- and transport-level metrics
	// as scrape-time collectors over the network's (thread-safe)
	// counters. One registry should back one runtime: the DES driver
	// registers some of the same families as plain counters, and mixing
	// the two shapes in one registry panics by design.
	Obs *obs.Registry
	// Journal, when non-nil, receives request lifecycle records
	// (request/result/deadline_deny), timestamped in ticks.
	Journal *obs.Journal
}

// Result mirrors driver.Result for the live runtime.
type Result struct {
	Cell    hexgrid.CellID
	Granted bool
	Ch      chanset.Channel
}

// pendingReq tracks one in-flight request.
type pendingReq struct {
	cell  hexgrid.CellID
	cb    func(Result)
	timer *time.Timer // nil when no RequestTimeout is configured
}

// Network is a running live network.
type Network struct {
	grid   *hexgrid.Grid
	assign *chanset.Assignment
	base   *transport.Live     // bottom of the stack: owns the goroutines
	net    transport.Transport // top of the stack: what stations talk to
	rel    *transport.Reliable // non-nil when a reliability layer is stacked
	allocs []alloc.Allocator
	opts   Options
	start  time.Time

	mu              sync.Mutex
	nextID          alloc.RequestID
	pending         map[alloc.RequestID]*pendingReq
	expired         map[alloc.RequestID]bool // deadline fired, outcome pending
	outstanding     int
	grants          uint64
	denies          uint64
	deadlineDenials uint64
	lateGrants      uint64
	abandoned       uint64
	badReleases     uint64
	holding         []chanset.Set // committed holdings per cell (checker)
	violation       error
}

// New wires the live network and starts its goroutines. Callers must
// Stop it.
func New(grid *hexgrid.Grid, assign *chanset.Assignment, factory alloc.Factory, opts Options) *Network {
	if opts.TickDuration <= 0 {
		opts.TickDuration = 100 * time.Microsecond
	}
	if opts.LatencyTicks <= 0 {
		opts.LatencyTicks = 10
	}
	base := transport.NewLive(opts.Delay, opts.Mailbox)
	var top transport.Transport = base
	if opts.Fault != nil {
		top = transport.NewFaulty(top, *opts.Fault)
	}
	var rel *transport.Reliable
	if opts.Fault != nil || opts.Reliable != nil {
		var rcfg transport.ReliableConfig
		if opts.Reliable != nil {
			rcfg = *opts.Reliable
		}
		rel = transport.NewReliable(top, rcfg)
		top = rel
	}
	n := &Network{
		grid:    grid,
		assign:  assign,
		base:    base,
		net:     top,
		rel:     rel,
		opts:    opts,
		pending: make(map[alloc.RequestID]*pendingReq),
		expired: make(map[alloc.RequestID]bool),
		holding: make([]chanset.Set, grid.NumCells()),
		start:   time.Now(),
	}
	if rel != nil {
		// A message that exhausts its retransmit budget means a dead
		// link; count it — the deadline watchdog converts the affected
		// requests into denials.
		rel.OnAbandon = func(message.Message) {
			n.mu.Lock()
			n.abandoned++
			n.mu.Unlock()
		}
	}
	n.allocs = make([]alloc.Allocator, grid.NumCells())
	for i := range n.allocs {
		cell := hexgrid.CellID(i)
		a := factory.New(cell)
		n.allocs[i] = a
		n.net.Attach(cell, a) // through the stack: reliability wraps the handler
		n.holding[i] = chanset.NewSet(assign.NumChannels)
	}
	if r := opts.Obs; r != nil {
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
			func() float64 {
				n.mu.Lock()
				defer n.mu.Unlock()
				return float64(n.lateGrants)
			})
		r.CounterFunc("adca_abandoned_messages_total",
			"Messages whose retransmit budget was exhausted (dead link).",
			func() float64 { return float64(n.Abandoned()) })
		r.GaugeFunc("adca_requests_outstanding",
			"Channel requests currently in flight.",
			func() float64 { return float64(n.Outstanding()) })
		transport.RegisterObs(r, n.net.Stats)
	}
	n.base.Start()
	// Start must run on each station's goroutine so allocator state is
	// never touched cross-thread.
	var wg sync.WaitGroup
	for i := range n.allocs {
		i := i
		cell := hexgrid.CellID(i)
		env := &liveEnv{net: n, cell: cell, rand: sim.Substream(opts.Seed, uint64(i)+1)}
		wg.Add(1)
		n.base.Do(cell, func() {
			n.allocs[i].Start(env)
			wg.Done()
		})
	}
	wg.Wait()
	return n
}

// Stop terminates the station goroutines. The reliability layer is
// closed first so its retransmit timers stop firing into a dead
// transport.
func (n *Network) Stop() {
	if n.rel != nil {
		n.rel.Close()
	}
	n.base.Stop()
	n.opts.Journal.Flush()
}

// nowTicks maps wall time since start onto virtual ticks (the journal's
// time base, matching Env.Now).
func (n *Network) nowTicks() int64 {
	return int64(time.Since(n.start) / n.opts.TickDuration)
}

// Grid returns the cell layout.
func (n *Network) Grid() *hexgrid.Grid { return n.grid }

// Request submits a channel request at cell; cb (may be nil) is invoked
// when the request completes — on the station's goroutine for a normal
// grant/denial, on a timer goroutine for a deadline denial.
func (n *Network) Request(cell hexgrid.CellID, cb func(Result)) {
	n.mu.Lock()
	n.nextID++
	id := n.nextID
	p := &pendingReq{cell: cell, cb: cb}
	n.pending[id] = p
	n.outstanding++
	if n.opts.RequestTimeout > 0 {
		p.timer = time.AfterFunc(n.opts.RequestTimeout, func() { n.expire(id) })
	}
	n.mu.Unlock()
	if j := n.opts.Journal; j != nil {
		j.Emit(n.nowTicks(), "request", int(cell), obs.FI("req", int64(id)))
	}
	n.base.Do(cell, func() { n.allocs[cell].Request(id) })
}

// expire fires when a request overstays RequestTimeout: it completes as
// a counted denial so the caller (and WaitSettled) never hang on a
// wedged link. The protocol may still conclude later; a late grant is
// released back in complete.
func (n *Network) expire(id alloc.RequestID) {
	n.mu.Lock()
	p := n.pending[id]
	if p == nil {
		n.mu.Unlock()
		return // completed normally just before the timer fired
	}
	delete(n.pending, id)
	n.expired[id] = true
	n.outstanding--
	n.denies++
	n.deadlineDenials++
	n.mu.Unlock()
	if j := n.opts.Journal; j != nil {
		j.Emit(n.nowTicks(), "deadline_deny", int(p.cell), obs.FI("req", int64(id)))
	}
	if p.cb != nil {
		p.cb(Result{Cell: p.cell, Granted: false, Ch: chanset.NoChannel})
	}
}

// Release returns a channel at cell. A release the allocator rejects
// (channel not held) is counted, not fatal: on the live runtime one
// misbehaving caller must not take down the signaling plane.
func (n *Network) Release(cell hexgrid.CellID, ch chanset.Channel) {
	n.mu.Lock()
	n.holding[cell].Remove(ch)
	n.mu.Unlock()
	n.base.Do(cell, func() {
		if err := n.allocs[cell].Release(ch); err != nil {
			n.mu.Lock()
			n.badReleases++
			n.mu.Unlock()
		}
	})
}

// Outstanding returns in-flight request count.
func (n *Network) Outstanding() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.outstanding
}

// Grants and Denies report completed request counts.
func (n *Network) Grants() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.grants
}

// Denies reports denied request counts (deadline denials included).
func (n *Network) Denies() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.denies
}

// DeadlineDenials reports requests denied by the RequestTimeout
// watchdog rather than by the protocol.
func (n *Network) DeadlineDenials() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.deadlineDenials
}

// Abandoned reports messages whose retransmit budget was exhausted
// (zero without a reliability layer).
func (n *Network) Abandoned() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.abandoned
}

// BadReleases reports Release calls the allocator rejected.
func (n *Network) BadReleases() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.badReleases
}

// Messages returns transport traffic so far, measured at the top of the
// stack (fault-injection and reliability counters included).
func (n *Network) Messages() transport.Stats { return n.net.Stats() }

// Violation returns the first co-channel interference detected among
// committed outcomes, or nil.
func (n *Network) Violation() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.violation
}

// WaitSettled blocks until no requests are outstanding and the whole
// transport stack is idle, or the timeout elapses; reports whether it
// settled.
func (n *Network) WaitSettled(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		n.mu.Lock()
		out := n.outstanding
		n.mu.Unlock()
		if out == 0 && n.idle() {
			return true
		}
		time.Sleep(200 * time.Microsecond)
	}
	return false
}

// idle reports quiescence of the transport stack's top layer.
func (n *Network) idle() bool {
	if i, ok := n.net.(transport.Idler); ok {
		return i.Idle()
	}
	return true
}

// complete records a finished request and runs its callback. It runs on
// the granting cell's station goroutine (via env.Granted / env.Denied).
func (n *Network) complete(cell hexgrid.CellID, id alloc.RequestID, granted bool, ch chanset.Channel) {
	n.mu.Lock()
	p := n.pending[id]
	if p == nil {
		// The deadline watchdog already completed this request as a
		// denial. A late grant must hand its channel back — we are on
		// the station's goroutine, so the release is a direct call.
		wasExpired := n.expired[id]
		delete(n.expired, id)
		if wasExpired && granted {
			n.lateGrants++
			n.mu.Unlock()
			if err := n.allocs[cell].Release(ch); err != nil {
				n.mu.Lock()
				n.badReleases++
				n.mu.Unlock()
			}
			return
		}
		n.mu.Unlock()
		return
	}
	if p.timer != nil {
		p.timer.Stop()
	}
	delete(n.pending, id)
	n.outstanding--
	if granted {
		n.grants++
		n.holding[cell].Add(ch)
		// Committed-outcome interference check (Theorem 1 over the
		// driver's book of record).
		if n.violation == nil {
			for _, j := range n.grid.Interference(cell) {
				if n.holding[j].Contains(ch) {
					n.violation = fmt.Errorf("livenet: cells %d and %d both hold channel %d", cell, j, ch)
					break
				}
			}
		}
	} else {
		n.denies++
	}
	n.mu.Unlock()
	if j := n.opts.Journal; j != nil {
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

// liveEnv implements alloc.Env on the live runtime. All methods are
// invoked from the owning station's goroutine.
type liveEnv struct {
	net  *Network
	cell hexgrid.CellID
	rand *sim.Rand
}

func (e *liveEnv) ID() hexgrid.CellID          { return e.cell }
func (e *liveEnv) Neighbors() []hexgrid.CellID { return e.net.grid.Interference(e.cell) }
func (e *liveEnv) Latency() sim.Time           { return e.net.opts.LatencyTicks }
func (e *liveEnv) Rand() *sim.Rand             { return e.rand }

func (e *liveEnv) Now() sim.Time {
	return sim.Time(time.Since(e.net.start) / e.net.opts.TickDuration)
}

func (e *liveEnv) Send(m message.Message) {
	if m.From != e.cell {
		m.From = e.cell
	}
	// The message crosses goroutines and may sit in retransmit queues:
	// take the copy alloc.Env.Send owes a Use that is only a view.
	if len(m.Use.Words()) > 0 {
		m.Use = m.Use.Clone()
	}
	e.net.net.Send(m)
}

func (e *liveEnv) After(d sim.Time, fn func()) {
	wall := time.Duration(d) * e.net.opts.TickDuration
	time.AfterFunc(wall, func() { e.net.base.Do(e.cell, fn) })
}

func (e *liveEnv) Began(alloc.RequestID) {}

func (e *liveEnv) Granted(id alloc.RequestID, ch chanset.Channel) {
	e.net.complete(e.cell, id, true, ch)
}

func (e *liveEnv) Denied(id alloc.RequestID) {
	e.net.complete(e.cell, id, false, chanset.NoChannel)
}

// Moved implements alloc.Env. Channel repacking needs runtime-side
// release redirection, which the live runtime does not provide — build
// repacking scenarios on the DES driver.
func (e *liveEnv) Moved(from, to chanset.Channel) {
	panic("livenet: channel repacking is not supported on the live runtime")
}
