// Package driver wires a scenario together: the hexagonal grid, the
// primary-channel plan, one allocator per cell, the deterministic DES
// transport, the Theorem-1 interference checker and the Theorem-2
// progress watchdog, plus the latency/traffic accounting every
// experiment reports.
//
// The driver exposes a programmatic request/release API; workload
// generation on top of it lives in internal/traffic.
package driver

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Options configure a simulation.
type Options struct {
	// Latency is the one-way message delay T in ticks (default 10).
	Latency sim.Time
	// Jitter adds a uniform extra delay in [0, Jitter] per message.
	Jitter sim.Time
	// Seed drives all randomness (per-cell substreams are derived).
	Seed uint64
	// Check enables the co-channel interference checker on every grant
	// (Theorem 1). Panics on violation — a violation is never a
	// recoverable condition, it falsifies the protocol.
	Check bool
	// TraceSize, if positive, keeps a ring buffer of the most recent
	// lifecycle events for debugging.
	TraceSize int
	// Wire routes every message through the binary codec (encode on
	// send, decode on delivery), validating serialization against live
	// traffic and accounting wire bytes in Stats.Messages.Bytes.
	Wire bool
	// DelayBuckets sizes the acquisition-delay histogram in units of
	// Latency (default 64 buckets of T/2).
	DelayBuckets int
	// Obs, when non-nil, binds driver-level instruments into the
	// registry: request outcomes, the outstanding-request gauge, the
	// acquisition-delay histogram and the transport message counter.
	// Protocol-core instruments are bound separately via
	// registry.Config.Obs. Instruments are incremented inline on the
	// single-threaded DES loop (the DES transport's Stats is not safe to
	// read from a concurrent scrape, so no func collectors here); the
	// obs counters themselves are atomic and safe to scrape.
	Obs *obs.Registry
	// Journal, when non-nil, receives request lifecycle records
	// (request/result/release) in addition to whatever the protocol
	// core emits through registry.Config.Obs.
	Journal *obs.Journal
}

func (o *Options) applyDefaults() {
	if o.Latency == 0 {
		o.Latency = 10
	}
	if o.DelayBuckets == 0 {
		o.DelayBuckets = 64
	}
}

// Result describes a completed channel request.
type Result struct {
	ID      alloc.RequestID
	Cell    hexgrid.CellID
	Granted bool
	Ch      chanset.Channel
	// Submitted/Began/Done are the request lifecycle times: submission,
	// start of protocol work (after station queueing), completion.
	Submitted, Began, Done sim.Time
}

// AcquisitionDelay is the protocol time (Began → Done) in ticks.
func (r Result) AcquisitionDelay() sim.Time { return r.Done - r.Began }

// TotalDelay includes station queueing (Submitted → Done).
func (r Result) TotalDelay() sim.Time { return r.Done - r.Submitted }

// Sim is one wired scenario.
type Sim struct {
	grid    *hexgrid.Grid
	assign  *chanset.Assignment
	engine  *sim.Engine
	net     *transport.DES
	allocs  []alloc.Allocator
	opts    Options
	checker *trace.InterferenceChecker
	dog     trace.Watchdog
	ring    *trace.Ring

	calls   CallHandler
	nextID  alloc.RequestID
	pending map[alloc.RequestID]*pendingReq
	// reqFree recycles pendingReq nodes: request bookkeeping is the
	// driver's hottest allocation, and completed nodes are reusable the
	// moment their completion callback returns.
	reqFree []*pendingReq
	// moved[cell][old] queues repacking moves (Env.Moved) so a caller
	// releasing the channel it was granted reaches a channel its cell
	// actually holds. A queue (not a single alias): the same channel id
	// can be granted, moved, and re-granted repeatedly, leaving several
	// outstanding forwards. Calls are fungible tokens — any consistent
	// matching of releases to held channels preserves system state.
	moved map[hexgrid.CellID]map[chanset.Channel][]chanset.Channel
	// teardown is set for the span of ForceQuiesce: protocol messages
	// the forced releases would send are suppressed (not scheduled, not
	// counted) — nothing can be delivered after the cutoff, and a warm
	// giant grid would otherwise manufacture tens of millions of
	// doomed events just to discard them.
	teardown bool

	// Aggregated statistics.
	acqDelay   metrics.Welford // ticks, granted requests only
	totalDelay metrics.Welford
	queueDelay metrics.Welford
	delayHist  *metrics.Histogram
	grants     uint64
	denies     uint64
	cellGrants []uint64
	cellDenies []uint64

	obs simObs
}

// simObs is the driver's bound instrument set. The zero value is fully
// disabled: every instrument is nil (allocation-free no-op) and journal
// is nil. Journal emissions must stay behind `if journal != nil` so the
// disabled path never builds variadic field slices.
type simObs struct {
	messages    *obs.Counter
	granted     *obs.Counter
	denied      *obs.Counter
	outstanding *obs.Gauge
	acquire     *obs.Histogram
	journal     *obs.Journal
	// The event kernel's footprint (sim.Footprint), set whenever the
	// kernel parks — the end of Run, Drain and DrainUntil — rather than
	// read by a collector: the queues are not safe to walk mid-run.
	kernelBytes *obs.GaugeVec
	kernelPages *obs.GaugeVec
	kernelPeak  *obs.GaugeVec
	kernelAtts  *obs.GaugeVec
}

// gridFanout resolves the kernel's fan records against the grid's
// interference lists: the lists alloc.Env.Neighbors hands the schemes.
type gridFanout struct{ grid *hexgrid.Grid }

func (f gridFanout) Neighbor(origin int32, i int) int32 {
	return int32(f.grid.Interference(hexgrid.CellID(origin))[i])
}

func (o *simObs) bind(r *obs.Registry, j *obs.Journal, latency sim.Time) {
	o.journal = j
	if r == nil {
		return
	}
	o.messages = r.Counter("adca_transport_messages_total",
		"Protocol messages handed to the transport.")
	o.granted = r.Counter("adca_requests_granted_total",
		"Channel requests completed with a grant.")
	o.denied = r.Counter("adca_requests_denied_total",
		"Channel requests completed with a denial.")
	o.outstanding = r.Gauge("adca_requests_outstanding",
		"Channel requests currently in flight.")
	t := float64(latency)
	o.acquire = r.Histogram("adca_acquire_ticks",
		"Acquisition (protocol) delay of granted requests, in ticks.",
		[]float64{t / 2, t, 2 * t, 4 * t, 8 * t, 16 * t, 32 * t, 64 * t})
	o.kernelBytes = r.GaugeVec("adca_kernel_bytes",
		"Memory the event kernel's tables hold, as of the last time it parked.", "table")
	o.kernelPages = r.GaugeVec("adca_kernel_pages",
		"Pages the event kernel's paged tables hold, as of the last time it parked.", "table")
	o.kernelPeak = r.GaugeVec("adca_kernel_peak_pending",
		"High-water mark of the event queues: records queued, and the events they stood for.", "unit")
	o.kernelAtts = r.GaugeVec("adca_kernel_attachments",
		"Message attachments posted so far: stored (parked), and satisfied by one already stored (shared).", "how")
}

// footprint publishes kernel's footprint; a no-op without a registry.
func (o *simObs) footprint(kernel interface{ Footprint() sim.Footprint }) {
	if o.kernelBytes == nil {
		return
	}
	f := kernel.Footprint()
	o.kernelBytes.With("heap").Set(float64(f.HeapBytes))
	o.kernelBytes.With("attachments").Set(float64(f.AttBytes))
	o.kernelBytes.With("funcs").Set(float64(f.SideBytes))
	o.kernelBytes.With("routes").Set(float64(f.RouteBytes))
	o.kernelPages.With("heap").Set(float64(f.HeapPages))
	o.kernelPages.With("attachments").Set(float64(f.AttPages))
	o.kernelPeak.With("records").Set(float64(f.PeakRecords))
	o.kernelPeak.With("events").Set(float64(f.PeakEvents))
	o.kernelAtts.With("parked").Set(float64(f.AttParked))
	o.kernelAtts.With("shared").Set(float64(f.AttShared))
}

// pendingReq is one in-flight request. Its completion is either cb, a
// closure (the public Request API), or cont, a typed continuation handed
// to the workload layer's CallHandler (the generator path: no closure
// per request).
type pendingReq struct {
	cell      hexgrid.CellID
	submitted sim.Time
	began     sim.Time
	cb        func(Result)
	cont      Continuation
}

// complete hands r to whichever completion the request was submitted
// with.
func (p *pendingReq) complete(h CallHandler, r Result) {
	switch {
	case p.cb != nil:
		p.cb(r)
	case p.cont.Op != 0:
		h.Complete(r, p.cont)
	}
}

// Continuation is a typed request completion: what the workload layer
// wants done when the request resolves, as data instead of a closure.
// Op (nonzero) and the other fields mean whatever the CallHandler that
// submitted it says they mean.
type Continuation struct {
	Op   uint8
	Flag bool
	Cell hexgrid.CellID
	Ch   chanset.Channel
	Hold sim.Time
}

// CallHandler is the workload layer's end of the typed-event contract:
// it interprets the call-lifecycle event kinds (callKinds) and the
// continuations of the requests it submitted with RequestCont. On the
// sharded driver both methods run on the worker of the shard that owns
// the event's (resp. the request's) cell.
type CallHandler interface {
	sim.Handler
	Complete(r Result, c Continuation)
}

// callKinds are the event kinds a CallHandler owns.
var callKinds = [...]sim.Kind{sim.KindArrival, sim.KindRelease, sim.KindDepart, sim.KindHandoff}

// New wires a simulation. The factory builds one allocator per cell.
func New(grid *hexgrid.Grid, assign *chanset.Assignment, factory alloc.Factory, opts Options) *Sim {
	opts.applyDefaults()
	if err := sim.CheckOrigins(grid.NumCells()); err != nil {
		panic("driver: " + err.Error())
	}
	engine := sim.NewEngine()
	engine.SetFanout(gridFanout{grid})
	var jr *sim.Rand
	if opts.Jitter > 0 {
		jr = sim.Substream(opts.Seed, 0xfeed)
	}
	s := &Sim{
		grid:       grid,
		assign:     assign,
		engine:     engine,
		net:        transport.NewDES(engine, opts.Latency, opts.Jitter, jr),
		opts:       opts,
		pending:    make(map[alloc.RequestID]*pendingReq),
		delayHist:  metrics.NewHistogram(float64(opts.Latency)/2, opts.DelayBuckets),
		cellGrants: make([]uint64, grid.NumCells()),
		cellDenies: make([]uint64, grid.NumCells()),
	}
	if opts.TraceSize > 0 {
		s.ring = trace.NewRing(opts.TraceSize)
	}
	s.obs.bind(opts.Obs, opts.Journal, opts.Latency)
	if opts.Wire {
		s.net.EnableWire()
	}
	s.allocs = make([]alloc.Allocator, grid.NumCells())
	for i := range s.allocs {
		cell := hexgrid.CellID(i)
		a := factory.New(cell)
		s.allocs[i] = a
		s.net.Attach(cell, a)
		env := &cellEnv{sim: s, cell: cell, rand: sim.Substream(opts.Seed, uint64(i)+1)}
		a.Start(env)
	}
	s.checker = trace.NewInterferenceChecker(grid, func(id hexgrid.CellID) chanset.Set {
		return s.allocs[id].InUse()
	})
	return s
}

// Engine exposes the event loop for scheduling workload events.
func (s *Sim) Engine() *sim.Engine { return s.engine }

// SetCallHandler installs the workload layer's interpreter of the
// call-lifecycle event kinds and of RequestCont continuations.
func (s *Sim) SetCallHandler(h CallHandler) {
	s.calls = h
	for _, k := range callKinds {
		s.engine.Handle(k, h)
	}
}

// NumShards is 1: the serial driver is the one-shard case of the
// workload-facing surface it shares with Parallel (Now, ShardOf, PostAt,
// PostAfter, PostRelay, RequestCont, Release).
func (s *Sim) NumShards() int { return 1 }

// ShardOf returns the shard owning cell: always 0.
func (s *Sim) ShardOf(hexgrid.CellID) int { return 0 }

// Now returns the current virtual time (the same for every cell).
func (s *Sim) Now(hexgrid.CellID) sim.Time { return s.engine.Now() }

// PostAt schedules the typed event ev at absolute time at with cell as
// its origin.
func (s *Sim) PostAt(cell hexgrid.CellID, at sim.Time, ev sim.Event) {
	s.engine.Post(at, int32(cell), ev, sim.Attachment{})
}

// PostAfter schedules ev delay ticks from now with cell as its origin.
func (s *Sim) PostAfter(cell hexgrid.CellID, delay sim.Time, ev sim.Event) {
	s.engine.Post(s.engine.Now()+delay, int32(cell), ev, sim.Attachment{})
}

// PostRelay schedules ev one message latency from now with from as its
// origin — the serial form of Parallel.PostRelay, where the event
// executes in to's shard.
func (s *Sim) PostRelay(from, _ hexgrid.CellID, ev sim.Event) {
	s.engine.Post(s.engine.Now()+s.opts.Latency, int32(from), ev, sim.Attachment{})
}

// Grid returns the scenario grid.
func (s *Sim) Grid() *hexgrid.Grid { return s.grid }

// Assignment returns the primary-channel plan.
func (s *Sim) Assignment() *chanset.Assignment { return s.assign }

// Latency returns the transport's one-way latency T.
func (s *Sim) Latency() sim.Time { return s.opts.Latency }

// Allocator returns the allocator of the given cell (for inspection).
func (s *Sim) Allocator(cell hexgrid.CellID) alloc.Allocator { return s.allocs[cell] }

// newPending takes a node off the free list (or allocates one).
func (s *Sim) newPending(cell hexgrid.CellID, now sim.Time, cb func(Result), cont Continuation) *pendingReq {
	var p *pendingReq
	if n := len(s.reqFree); n > 0 {
		p = s.reqFree[n-1]
		s.reqFree = s.reqFree[:n-1]
	} else {
		p = new(pendingReq)
	}
	*p = pendingReq{cell: cell, submitted: now, began: now, cb: cb, cont: cont}
	return p
}

// recycle returns a completed node to the free list. Callers must be
// done reading it (in particular, the completion callback has returned).
func (s *Sim) recycle(p *pendingReq) {
	p.cb = nil // drop the closure reference
	s.reqFree = append(s.reqFree, p)
}

// Request submits a channel request at cell; cb (optional) runs on
// completion. It returns the request id.
func (s *Sim) Request(cell hexgrid.CellID, cb func(Result)) alloc.RequestID {
	return s.request(cell, cb, Continuation{})
}

// RequestCont is Request with a typed completion: when the request
// resolves, the CallHandler's Complete receives the result and c.
func (s *Sim) RequestCont(cell hexgrid.CellID, c Continuation) alloc.RequestID {
	return s.request(cell, nil, c)
}

func (s *Sim) request(cell hexgrid.CellID, cb func(Result), cont Continuation) alloc.RequestID {
	s.nextID++
	id := s.nextID
	now := s.engine.Now()
	s.pending[id] = s.newPending(cell, now, cb, cont)
	s.dog.Submitted(now)
	s.obs.outstanding.Add(1)
	if s.obs.journal != nil {
		s.obs.journal.Emit(int64(now), "request", int(cell), obs.FI("req", int64(id)))
	}
	s.traceEvent(trace.Event{At: now, Kind: trace.EvRequest, Cell: cell, Ch: chanset.NoChannel, Info: int64(id)})
	s.allocs[cell].Request(id)
	return id
}

// Release returns channel ch at cell to the pool. If repacking moved
// the call granted ch onto another channel, the release is forwarded:
// when ch is not currently held, the oldest outstanding move from ch is
// consumed instead. (A held ch is always releasable directly — calls
// are fungible; see the moved field's comment.)
func (s *Sim) Release(cell hexgrid.CellID, ch chanset.Channel) {
	if m := s.moved[cell]; m != nil && !s.allocs[cell].InUse().Contains(ch) {
		if q := m[ch]; len(q) > 0 {
			target := q[0]
			if len(q) == 1 {
				delete(m, ch)
			} else {
				m[ch] = q[1:]
			}
			ch = target
		}
	}
	if s.obs.journal != nil {
		s.obs.journal.Emit(int64(s.engine.Now()), "release", int(cell), obs.FI("ch", int64(ch)))
	}
	s.traceEvent(trace.Event{At: s.engine.Now(), Kind: trace.EvRelease, Cell: cell, Ch: ch})
	if err := s.allocs[cell].Release(ch); err != nil {
		// In the deterministic sim an unheld release is a driver bug,
		// not an environmental fault — fail loudly.
		panic(err)
	}
}

// Run advances virtual time to until, executing all due events.
func (s *Sim) Run(until sim.Time) {
	s.engine.Run(until)
	s.obs.footprint(s.engine)
}

// Drain runs to quiescence with a backstop; it reports whether the event
// queue emptied.
func (s *Sim) Drain(maxEvents uint64) bool {
	drained := s.engine.Drain(maxEvents)
	s.obs.footprint(s.engine)
	return drained
}

// DrainUntil executes every event at or before cutoff and parks the
// clock there, leaving later events queued for ForceQuiesce. It reports
// whether all due events ran (false only on the maxEvents backstop).
func (s *Sim) DrainUntil(cutoff sim.Time, maxEvents uint64) bool {
	done := s.engine.DrainUntil(cutoff, maxEvents)
	s.obs.footprint(s.engine)
	return done
}

// ForceQuiesce terminates a truncated run at the current clock: it
// discards every still-queued event, force-releases every held channel
// in ascending (cell, in-use-set) order — each release goes through the
// normal allocator path, so allocator state and traces stay canonical,
// but with protocol sends suppressed (teardown): the messages could
// never be delivered before the cutoff, and a warm giant grid would
// otherwise schedule-and-discard tens of millions of them — then
// discards what the releases did queue and cancels the remaining
// in-flight requests: no callback, no grant/deny count, no trace event,
// so no order to observe, and the nodes are left to the collector. The
// sharded driver performs the identical sweep, which is what keeps a
// truncated trajectory bit-identical between the two. It returns how
// many channels were force-released and how many requests were
// cancelled.
func (s *Sim) ForceQuiesce() (released, cancelled int) {
	s.teardown = true
	defer func() { s.teardown = false }()
	s.engine.DiscardPending()
	for cell := range s.allocs {
		for {
			use := s.allocs[cell].InUse()
			if use.Empty() {
				break
			}
			s.Release(hexgrid.CellID(cell), use.First())
			released++
		}
	}
	s.engine.DiscardPending()
	cancelled = len(s.pending)
	clear(s.pending)
	s.dog.Cancelled(cancelled)
	s.obs.outstanding.Add(-float64(cancelled))
	clear(s.moved)
	return released, cancelled
}

// CheckInvariant verifies Theorem 1 across the whole grid now.
func (s *Sim) CheckInvariant() error { return s.checker.CheckAll() }

// Stalled reports whether requests have been outstanding for more than
// window ticks without progress (Theorem 2 violation symptom).
func (s *Sim) Stalled(window sim.Time) bool {
	return s.dog.Stalled(s.engine.Now(), window)
}

// Outstanding returns the number of in-flight requests.
func (s *Sim) Outstanding() int { return s.dog.Outstanding() }

// Trace returns the retained lifecycle events (nil without TraceSize).
func (s *Sim) Trace() []trace.Event {
	if s.ring == nil {
		return nil
	}
	return s.ring.Events()
}

func (s *Sim) traceEvent(e trace.Event) {
	if s.ring != nil {
		s.ring.Add(e)
	}
}

// Stats is the aggregate outcome of a run.
type Stats struct {
	// Grants and Denies count completed requests.
	Grants, Denies uint64
	// Messages is the transport traffic.
	Messages transport.Stats
	// AcqDelay is the acquisition (protocol) delay distribution of
	// granted requests, in ticks.
	AcqDelay metrics.Welford
	// TotalDelay includes station queueing.
	TotalDelay metrics.Welford
	// QueueDelay is the station queueing component alone.
	QueueDelay metrics.Welford
	// DelayP95 is the 95th-percentile acquisition delay in ticks.
	DelayP95 float64
	// Counters aggregates the per-scheme protocol counters.
	Counters alloc.Counters
	// CellGrants/CellDenies are per-cell tallies (fairness analyses).
	CellGrants, CellDenies []uint64
}

// BlockingProbability is Denies / (Grants + Denies).
func (st Stats) BlockingProbability() float64 {
	total := st.Grants + st.Denies
	if total == 0 {
		return 0
	}
	return float64(st.Denies) / float64(total)
}

// MessagesPerRequest is total messages / completed requests.
func (st Stats) MessagesPerRequest() float64 {
	total := st.Grants + st.Denies
	if total == 0 {
		return 0
	}
	return float64(st.Messages.Total) / float64(total)
}

// Stats snapshots the current aggregates.
func (s *Sim) Stats() Stats {
	st := Stats{
		Grants:     s.grants,
		Denies:     s.denies,
		Messages:   s.net.Stats(),
		AcqDelay:   s.acqDelay,
		TotalDelay: s.totalDelay,
		QueueDelay: s.queueDelay,
		DelayP95:   s.delayHist.Quantile(0.95),
		CellGrants: append([]uint64(nil), s.cellGrants...),
		CellDenies: append([]uint64(nil), s.cellDenies...),
	}
	for _, a := range s.allocs {
		if cp, ok := a.(alloc.CounterProvider); ok {
			st.Counters.Add(cp.ProtocolCounters())
		}
	}
	return st
}

// ModeOccupancy returns the fraction of cells currently in each mode
// 0..3 (adaptive scheme introspection; other schemes report mode 0).
func (s *Sim) ModeOccupancy() [4]float64 {
	var counts [4]int
	for _, a := range s.allocs {
		m := a.Mode()
		if m >= 0 && m < 4 {
			counts[m]++
		}
	}
	var out [4]float64
	n := float64(len(s.allocs))
	for i, c := range counts {
		out[i] = float64(c) / n
	}
	return out
}

// cellEnv implements alloc.Env for one cell.
type cellEnv struct {
	sim  *Sim
	cell hexgrid.CellID
	rand *sim.Rand
}

func (e *cellEnv) ID() hexgrid.CellID          { return e.cell }
func (e *cellEnv) Neighbors() []hexgrid.CellID { return e.sim.grid.Interference(e.cell) }
func (e *cellEnv) Now() sim.Time               { return e.sim.engine.Now() }
func (e *cellEnv) Latency() sim.Time           { return e.sim.opts.Latency }
func (e *cellEnv) Rand() *sim.Rand             { return e.rand }

func (e *cellEnv) Send(m message.Message) {
	if e.sim.teardown {
		return
	}
	if m.From != e.cell {
		m.From = e.cell
	}
	e.sim.obs.messages.Inc()
	e.sim.net.Send(m)
}

// Multicast implements alloc.Multicaster: one fan record on the engine
// where the transport can carry m that way, a Send each where it cannot.
func (e *cellEnv) Multicast(m message.Message, mask []uint64) {
	if e.sim.teardown {
		return
	}
	m.From = e.cell
	sent, ok := e.sim.net.Multicast(m, len(e.Neighbors()), mask)
	if !ok {
		alloc.SendEach(e, m, mask)
		return
	}
	e.sim.obs.messages.Add(uint64(sent))
}

func (e *cellEnv) Began(id alloc.RequestID) {
	if p, ok := e.sim.pending[id]; ok {
		p.began = e.sim.engine.Now()
	}
}

func (e *cellEnv) Moved(from, to chanset.Channel) {
	s := e.sim
	if s.moved == nil {
		s.moved = make(map[hexgrid.CellID]map[chanset.Channel][]chanset.Channel)
	}
	m := s.moved[e.cell]
	if m == nil {
		m = make(map[chanset.Channel][]chanset.Channel)
		s.moved[e.cell] = m
	}
	m[from] = append(m[from], to)
}

func (e *cellEnv) Granted(id alloc.RequestID, ch chanset.Channel) {
	s := e.sim
	p, ok := s.pending[id]
	if !ok {
		panic(fmt.Sprintf("driver: grant for unknown request %d at cell %d", id, e.cell))
	}
	delete(s.pending, id)
	now := s.engine.Now()
	s.dog.Completed(now)
	s.grants++
	s.cellGrants[e.cell]++
	s.acqDelay.Observe(float64(now - p.began))
	s.totalDelay.Observe(float64(now - p.submitted))
	s.queueDelay.Observe(float64(p.began - p.submitted))
	s.delayHist.Observe(float64(now - p.began))
	s.obs.granted.Inc()
	s.obs.outstanding.Add(-1)
	s.obs.acquire.Observe(float64(now - p.began))
	if s.obs.journal != nil {
		s.obs.journal.Emit(int64(now), "result", int(e.cell),
			obs.FI("req", int64(id)), obs.FI("granted", 1),
			obs.FI("ch", int64(ch)), obs.FI("ticks", int64(now-p.began)))
	}
	s.traceEvent(trace.Event{At: now, Kind: trace.EvGrant, Cell: e.cell, Ch: ch, Info: int64(id)})
	if s.opts.Check {
		if err := s.checker.CheckCell(e.cell); err != nil {
			panic(err)
		}
	}
	p.complete(s.calls, Result{
		ID: id, Cell: e.cell, Granted: true, Ch: ch,
		Submitted: p.submitted, Began: p.began, Done: now,
	})
	s.recycle(p)
}

func (e *cellEnv) Denied(id alloc.RequestID) {
	s := e.sim
	p, ok := s.pending[id]
	if !ok {
		panic(fmt.Sprintf("driver: denial for unknown request %d at cell %d", id, e.cell))
	}
	delete(s.pending, id)
	now := s.engine.Now()
	s.dog.Completed(now)
	s.denies++
	s.cellDenies[e.cell]++
	s.obs.denied.Inc()
	s.obs.outstanding.Add(-1)
	if s.obs.journal != nil {
		s.obs.journal.Emit(int64(now), "result", int(e.cell),
			obs.FI("req", int64(id)), obs.FI("granted", 0),
			obs.FI("ticks", int64(now-p.began)))
	}
	s.traceEvent(trace.Event{At: now, Kind: trace.EvDeny, Cell: e.cell, Ch: chanset.NoChannel, Info: int64(id)})
	p.complete(s.calls, Result{
		ID: id, Cell: e.cell, Granted: false, Ch: chanset.NoChannel,
		Submitted: p.submitted, Began: p.began, Done: now,
	})
	s.recycle(p)
}
