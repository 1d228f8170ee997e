// Package driver wires a scenario together: the hexagonal grid, the
// primary-channel plan, one allocator per cell, message delivery on the
// deterministic event kernel, the Theorem-1 interference checker and the
// Theorem-2 progress watchdog, plus the latency/traffic accounting every
// experiment reports. It exposes a programmatic request/release API;
// workload generation on top of it lives in internal/traffic.
//
// There is one driver. Cells are partitioned into contiguous tiles
// (hexgrid.Partition); each shard owns the driver state of its cells and
// the only interaction between shards is message delivery, which the
// kernel's lookahead windows make safe. New runs it on the serial
// sim.Engine as one shard, NewParallel on the sharded sim.Shards at any
// shard count; which kernel is underneath shows only in the helpers at
// the end of env.go.
//
// Determinism: a run's trajectory — every per-cell stat, the trace, and
// the final channel sets — is a function of (scenario, seed) only. The
// worker count changes wall-clock, never results, and per-cell results
// do not depend on the shard count either (DESIGN.md §9.4).
//
// What New shares. The two constructors differ in what the cells have in
// common, not in what a cell does; each difference is a value New
// assigns, pinned by trajectory hashes recorded on either side:
//   - Request ids: derived per cell under NewParallel
//     (id = count*N + cell + 1), so issuing one needs no coordination
//     between shards; under New every cell counts in the one record
//     the grid shares, with stride 1 — the sequence 1, 2, 3, ... Ids are
//     correlation tokens only, never in a message, so trajectories are
//     unaffected.
//   - The jitter stream: one per sender cell under NewParallel, one for
//     the grid under New (jittered runs of the two are distinct
//     scenarios).
//   - The delay accumulators: per cell, merged in ascending cell order,
//     under NewParallel; under New every cell observes into the shared
//     record's, in execution order. Same samples, another floating-point
//     summation order: the means agree to about 1e-16.
//
// New also reads its one trace ring in execution order, where
// NewParallel merges the shards' rings in canonical (At, Cell) order.
//
// Two rules depend on the shard count, not on the constructor. Theorem 1
// is checked inside every granting event at one shard, and over the whole
// grid at every window barrier (a consistent cut) above it: reading a
// remote cell's channel set mid-window would race its shard. And a
// Journal is accepted at one shard only: JSONL emission order across
// shards is scheduling-dependent, which would silently break the
// byte-identical-artifacts contract (the Obs registry is atomics, and
// works at any).
package driver

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Options configure a simulation.
type Options struct {
	// Latency is the one-way message delay T in ticks (default 10). It
	// is also the sharded kernel's lookahead window width.
	Latency sim.Time
	// Jitter adds a uniform extra delay in [0, Jitter] per message (see
	// the package comment for which stream it is drawn from).
	Jitter sim.Time
	// Seed drives all randomness (per-cell substreams are derived).
	Seed uint64
	// Check enables the co-channel interference checker (Theorem 1): on
	// every grant at one shard, at every window barrier above it. Panics
	// on violation — a violation is never a recoverable condition, it
	// falsifies the protocol.
	Check bool
	// TraceSize, if positive, keeps a per-shard ring buffer of the most
	// recent lifecycle events for debugging.
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
	// acquisition-delay histogram, the transport message counter and the
	// kernel's footprint gauges. Protocol-core instruments are bound
	// separately via registry.Config.Obs. All are atomic: shard workers
	// increment them concurrently and a scrape may read them mid-run.
	Obs *obs.Registry
	// Journal, when non-nil, receives request lifecycle records
	// (request/result/release) in addition to whatever the protocol
	// core emits through registry.Config.Obs. One shard only.
	Journal *obs.Journal
	// Shards is the number of tiles (default min(16, cells)); New fixes
	// it at 1. Per-cell results are shard-count-invariant.
	Shards int
	// Workers is the number of goroutines advancing shards (default
	// NumCPU, capped at Shards). Never affects results.
	Workers int
}

// ParallelOptions is Options: NewParallel reads Shards and Workers, New
// overrides them.
type ParallelOptions = Options

// check applies the defaults and rejects what no kernel can run.
func (o *Options) check(cells int) error {
	if o.Latency == 0 {
		o.Latency = 10
	}
	if o.DelayBuckets == 0 {
		o.DelayBuckets = 64
	}
	if o.Shards == 0 {
		o.Shards = min(16, cells)
	}
	if o.Workers == 0 {
		o.Workers = runtime.NumCPU()
	}
	o.Workers = min(o.Workers, o.Shards)
	if o.Latency < 1 || o.Jitter < 0 {
		return fmt.Errorf("driver: need latency >= 1 and jitter >= 0, got %d and %d", o.Latency, o.Jitter)
	}
	if o.Journal != nil && o.Shards > 1 {
		return fmt.Errorf("driver: a journal needs one shard, got %d: records from shards running concurrently would interleave by schedule (the metrics registry works at any shard count)", o.Shards)
	}
	if err := sim.CheckOrigins(cells); err != nil {
		return fmt.Errorf("driver: %w", err)
	}
	return nil
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

// parShard is one shard's private driver state. Only the shard's worker
// (or the coordinator between windows) touches it.
type parShard struct {
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
	dog   trace.Watchdog
	ring  *trace.Ring
	msgs  transport.Stats
	// delayHist accumulates this shard's acquisition delays; Stats()
	// merges the buckets (integer counts, order-insensitive).
	delayHist *metrics.Histogram
	grants    uint64
	denies    uint64
	releases  uint64
	lastAt    map[parLink]sim.Time // per-link FIFO clamp under jitter
	wireBuf   []byte
	_         [64]byte
}

type parLink struct {
	from, to hexgrid.CellID
}

// cellStat is one cell's completion tallies. uint32: 4 billion
// completions per cell is far beyond any run length.
type cellStat struct {
	grants, denies uint32
}

// shareStat packs a request counter and the three delay accumulators
// into a single record, so that what a grant touches is one slab entry
// and one cache line group instead of four parallel arrays — at 10^6
// cells the layout (not the byte count alone) dominates merge and
// grant-path locality. There is one per cell under NewParallel and one
// for the grid under New.
type shareStat struct {
	acqDelay   metrics.Welford
	totalDelay metrics.Welford
	queueDelay metrics.Welford
	reqCount   uint64
}

// Parallel is one wired scenario.
type Parallel struct {
	grid   *hexgrid.Grid
	assign *chanset.Assignment
	// The event kernel: engine under New, kernel under NewParallel, the
	// other nil; k is whichever it is, for what both spell alike.
	engine *sim.Engine
	kernel *sim.Shards
	k      eventKernel

	part    *hexgrid.Partition
	allocs  []alloc.Allocator
	opts    Options
	checker *trace.InterferenceChecker
	shards  []parShard
	calls   CallHandler

	// Per-cell tallies, written only by the owning shard's worker.
	cells []cellStat
	// envs is the per-cell allocator environment slab; cell i's env is
	// &envs[i], with its RNG stream embedded by value.
	envs []cellEnv

	// shared, own and stride are what the constructor makes the cells
	// share: a cell counts its requests and accumulates its delays in
	// shared[cell&own], and request ids are spaced stride apart — a record
	// per cell, all ones and the cell count under NewParallel; one record,
	// 0 and 1 under New. See the package comment.
	shared []shareStat
	own    hexgrid.CellID
	stride int64

	// checkGrant: Theorem 1 is checked inside every granting event (one
	// shard with Options.Check).
	checkGrant bool

	// teardown is set for the span of ForceQuiesce (coordinator context,
	// kernel parked — never read concurrently): protocol messages the
	// forced releases would send are suppressed (not scheduled, not
	// counted) — nothing can be delivered after the cutoff, and a warm
	// giant grid would otherwise manufacture tens of millions of doomed
	// events just to discard them.
	teardown bool

	obs simObs
}

// Sim is Parallel; New returns one on the serial kernel.
type Sim = Parallel

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
		"Pages the event kernel's paged tables hold, as of the last time it parked; pool is the high-water mark of event pages out at once.", "table")
	o.kernelPeak = r.GaugeVec("adca_kernel_peak_pending",
		"High-water mark of the event queues: records queued, and the events they stood for.", "unit")
	o.kernelAtts = r.GaugeVec("adca_kernel_attachments",
		"Message attachments posted so far: stored (parked), and satisfied by one already stored (shared).", "how")
}

// footprint publishes k's footprint; a no-op without a registry.
func (o *simObs) footprint(k eventKernel) {
	if o.kernelBytes == nil {
		return
	}
	f := k.Footprint()
	o.kernelBytes.With("heap").Set(float64(f.HeapBytes))
	o.kernelBytes.With("attachments").Set(float64(f.AttBytes))
	o.kernelBytes.With("funcs").Set(float64(f.SideBytes))
	o.kernelBytes.With("routes").Set(float64(f.RouteBytes))
	o.kernelBytes.With("pool").Set(float64(f.PoolBytes))
	o.kernelPages.With("heap").Set(float64(f.HeapPages))
	o.kernelPages.With("pool").Set(float64(f.PoolPages))
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
// continuations of the requests it submitted with RequestCont. Both
// methods run on the worker of the shard that owns the event's (resp.
// the request's) cell.
type CallHandler interface {
	sim.Handler
	Complete(r Result, c Continuation)
}

// callKinds are the event kinds a CallHandler owns.
var callKinds = [...]sim.Kind{sim.KindArrival, sim.KindRelease, sim.KindDepart, sim.KindHandoff}

// New wires a simulation on the serial kernel: one shard, and the three
// sharings of the package comment. The factory builds one allocator per
// cell. An option no kernel can run (negative latency or jitter, a grid
// beyond the kernel's origin limit) panics.
func New(grid *hexgrid.Grid, assign *chanset.Assignment, factory alloc.Factory, opts Options) *Sim {
	opts.Shards, opts.Workers = 1, 1
	p, err := prepare(grid, assign, opts)
	if err != nil {
		panic(err.Error())
	}
	p.engine = sim.NewEngine()
	p.shared, p.own, p.stride = make([]shareStat, 1), 0, 1
	var jitter *sim.Rand
	if opts.Jitter > 0 {
		jitter = sim.Substream(opts.Seed, 0xfeed)
	}
	p.start(p.engine, factory, func(hexgrid.CellID) *sim.Rand { return jitter })
	return p
}

// NewParallel wires a simulation on the sharded kernel, exactly as New
// does on the serial one; an option no kernel can run is an error.
func NewParallel(grid *hexgrid.Grid, assign *chanset.Assignment, factory alloc.Factory, opts ParallelOptions) (*Parallel, error) {
	p, err := prepare(grid, assign, opts)
	if err != nil {
		return nil, err
	}
	cells := grid.NumCells()
	p.kernel = sim.NewShards(p.opts.Shards, p.opts.Latency, cells)
	p.shared, p.own, p.stride = make([]shareStat, cells), -1, int64(cells)
	p.start(p.kernel, factory, func(cell hexgrid.CellID) *sim.Rand {
		return sim.Substream(opts.Seed, 0x6a170000+uint64(cell))
	})
	return p, nil
}

// prepare validates opts and builds everything of a driver that does not
// touch the kernel.
func prepare(grid *hexgrid.Grid, assign *chanset.Assignment, opts Options) (*Parallel, error) {
	cells := grid.NumCells()
	if err := opts.check(cells); err != nil {
		return nil, err
	}
	part, err := grid.Partition(opts.Shards)
	if err != nil {
		return nil, err
	}
	p := &Parallel{
		grid:       grid,
		assign:     assign,
		part:       part,
		opts:       opts,
		shards:     make([]parShard, opts.Shards),
		cells:      make([]cellStat, cells),
		envs:       make([]cellEnv, cells),
		allocs:     make([]alloc.Allocator, cells),
		checkGrant: opts.Check && opts.Shards == 1,
	}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.pending = make(map[alloc.RequestID]*pendingReq)
		sh.delayHist = metrics.NewHistogram(float64(opts.Latency)/2, opts.DelayBuckets)
		if opts.TraceSize > 0 {
			sh.ring = trace.NewRing(opts.TraceSize)
		}
		if opts.Jitter > 0 {
			sh.lastAt = make(map[parLink]sim.Time)
		}
	}
	p.obs.bind(opts.Obs, opts.Journal, opts.Latency)
	p.checker = trace.NewInterferenceChecker(grid, func(id hexgrid.CellID) chanset.Set {
		return p.allocs[id].InUse()
	})
	return p, nil
}

// start binds the driver to its kernel k and starts one allocator per
// cell; jitterOf names each sender's jitter stream (jittered runs only).
func (p *Parallel) start(k eventKernel, factory alloc.Factory, jitterOf func(hexgrid.CellID) *sim.Rand) {
	p.k = k
	k.Handle(sim.KindMessage, p)
	k.SetFanout(gridFanout{p.grid})
	for i := range p.allocs {
		cell := hexgrid.CellID(i)
		a := factory.New(cell)
		p.allocs[i] = a
		env := &p.envs[i]
		*env = cellEnv{
			p:     p,
			shard: p.part.ShardOf(cell),
			cell:  cell,
			rand:  sim.SubstreamValue(p.opts.Seed, uint64(i)+1),
		}
		if p.opts.Jitter > 0 {
			env.jitter = jitterOf(cell)
		}
		a.Start(env)
	}
	if p.opts.Check && !p.checkGrant { // more than one shard: the sharded kernel
		p.kernel.SetBarrier(func() {
			if err := p.checker.CheckAll(); err != nil {
				panic(err)
			}
		})
	}
}

// Engine exposes the serial event kernel: nil under NewParallel.
func (p *Parallel) Engine() *sim.Engine { return p.engine }

// Kernel exposes the sharded event kernel: nil under New.
func (p *Parallel) Kernel() *sim.Shards { return p.kernel }

// SetCallHandler installs the workload layer's interpreter of the
// call-lifecycle event kinds and of RequestCont continuations. Pre-run
// only.
func (p *Parallel) SetCallHandler(h CallHandler) {
	p.calls = h
	for _, k := range callKinds {
		p.k.Handle(k, h)
	}
}

// HandleEvent implements sim.Handler for KindMessage: deliver the
// message to its destination cell's allocator, on that cell's shard.
func (p *Parallel) HandleEvent(ev sim.Event, att sim.Attachment) {
	p.allocs[ev.Cell].Handle(transport.MessageOf(ev, att))
}

// Grid returns the scenario grid.
func (p *Parallel) Grid() *hexgrid.Grid { return p.grid }

// Assignment returns the primary-channel plan.
func (p *Parallel) Assignment() *chanset.Assignment { return p.assign }

// Partition returns the shard partition.
func (p *Parallel) Partition() *hexgrid.Partition { return p.part }

// Latency returns the one-way latency T.
func (p *Parallel) Latency() sim.Time { return p.opts.Latency }

// NumShards returns the shard count.
func (p *Parallel) NumShards() int { return p.opts.Shards }

// Allocator returns the allocator of the given cell (for inspection;
// only safe while the kernel is parked).
func (p *Parallel) Allocator(cell hexgrid.CellID) alloc.Allocator { return p.allocs[cell] }

// ShardOf returns the shard that owns cell.
func (p *Parallel) ShardOf(cell hexgrid.CellID) int { return p.part.ShardOf(cell) }

// Now returns cell's shard-local virtual time.
func (p *Parallel) Now(cell hexgrid.CellID) sim.Time { return p.now(p.part.ShardOf(cell)) }

// PostAt schedules the typed event ev at absolute time at in cell's
// shard, with the cell as the event's origin. Callable before Run or
// from an event already executing in that shard (workload generators
// are built this way).
func (p *Parallel) PostAt(cell hexgrid.CellID, at sim.Time, ev sim.Event) {
	s := p.part.ShardOf(cell)
	p.post(s, s, at, int32(cell), ev, sim.Attachment{})
}

// PostAfter schedules ev delay ticks from cell's shard-local now.
func (p *Parallel) PostAfter(cell hexgrid.CellID, delay sim.Time, ev sim.Event) {
	s := p.part.ShardOf(cell)
	p.post(s, s, p.now(s)+delay, int32(cell), ev, sim.Attachment{})
}

// PostRelay schedules ev one message latency from from's shard-local
// now, executing in to's shard with from as the event origin — the
// driver primitive for workload flows that hop between cells (handoff
// signalling). The fixed one-latency delay is exactly the kernel's
// lookahead bound, so a relay is always a legal cross-shard event; it
// applies even when both cells share a shard, keeping the schedule
// independent of the partition. Must be called from an event executing
// in from's shard (or before the run starts).
func (p *Parallel) PostRelay(from, to hexgrid.CellID, ev sim.Event) {
	src := p.part.ShardOf(from)
	p.post(src, p.part.ShardOf(to), p.now(src)+p.opts.Latency, int32(from), ev, sim.Attachment{})
}

// At schedules fn at absolute time at in cell's shard, with the cell as
// the event's origin. Same context rule as PostAt.
func (p *Parallel) At(cell hexgrid.CellID, at sim.Time, fn func()) {
	p.postFunc(p.part.ShardOf(cell), at, int32(cell), fn)
}

// After schedules fn delay ticks from cell's shard-local now.
func (p *Parallel) After(cell hexgrid.CellID, delay sim.Time, fn func()) {
	s := p.part.ShardOf(cell)
	p.postFunc(s, p.now(s)+delay, int32(cell), fn)
}

// Request submits a channel request at cell; cb (optional) runs on
// completion, on the cell's shard. Must be called before Run/Drain or
// from an event executing in the cell's own shard. It returns the
// request id: unique, and sequential from 1 under New.
func (p *Parallel) Request(cell hexgrid.CellID, cb func(Result)) alloc.RequestID {
	return p.request(cell, cb, Continuation{})
}

// RequestCont is Request with a typed completion: when the request
// resolves, the CallHandler's Complete receives the result and c.
func (p *Parallel) RequestCont(cell hexgrid.CellID, c Continuation) alloc.RequestID {
	return p.request(cell, nil, c)
}

func (p *Parallel) request(cell hexgrid.CellID, cb func(Result), cont Continuation) alloc.RequestID {
	si := p.part.ShardOf(cell)
	sh := &p.shards[si]
	counter := cell & p.own
	id := alloc.RequestID(int64(p.shared[counter].reqCount)*p.stride + int64(counter) + 1)
	p.shared[counter].reqCount++
	now := p.now(si)
	sh.pending[id] = sh.newPending(cell, now, cb, cont)
	sh.dog.Submitted(now)
	p.obs.outstanding.Add(1)
	if p.obs.journal != nil {
		p.obs.journal.Emit(int64(now), "request", int(cell), obs.FI("req", int64(id)))
	}
	sh.traceEvent(trace.Event{At: now, Kind: trace.EvRequest, Cell: cell, Ch: chanset.NoChannel, Info: int64(id)})
	p.allocs[cell].Request(id)
	return id
}

// Release returns channel ch at cell to the pool. If repacking moved
// the call granted ch onto another channel, the release is forwarded:
// when ch is not currently held, the oldest outstanding move from ch is
// consumed instead. (A held ch is always releasable directly — calls
// are fungible; see the moved field's comment.) Same shard-context rule
// as Request.
func (p *Parallel) Release(cell hexgrid.CellID, ch chanset.Channel) {
	si := p.part.ShardOf(cell)
	sh := &p.shards[si]
	if m := sh.moved[cell]; m != nil && !p.allocs[cell].InUse().Contains(ch) {
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
	now := p.now(si)
	if p.obs.journal != nil {
		p.obs.journal.Emit(int64(now), "release", int(cell), obs.FI("ch", int64(ch)))
	}
	sh.traceEvent(trace.Event{At: now, Kind: trace.EvRelease, Cell: cell, Ch: ch})
	if err := p.allocs[cell].Release(ch); err != nil {
		// In the deterministic sim an unheld release is a driver bug,
		// not an environmental fault — fail loudly.
		panic(err)
	}
	sh.releases++
}

// ActiveCalls returns the number of channels currently held across the
// grid (grants minus releases). Only safe while the kernel is parked —
// before Run, at a window barrier, or after Run/Drain returns — since
// shard workers update the counters mid-window.
func (p *Parallel) ActiveCalls() uint64 {
	var n uint64
	for i := range p.shards {
		sh := &p.shards[i]
		n += sh.grants - sh.releases
	}
	return n
}

// ForceQuiesce terminates a truncated run at the current clock: it
// discards every still-queued event, force-releases every held channel
// in ascending (cell, in-use-set) order — each release goes through the
// normal allocator path, so allocator state and traces stay canonical,
// but with protocol sends suppressed (teardown): the messages could
// never be delivered before the cutoff — then discards what the releases
// did queue and cancels the remaining in-flight requests: no callback,
// no grant/deny count, no trace event, so no order to observe. The
// cancelled nodes are left to the collector — the run is over, and a
// free list of them would sit on top of its peak.
// Coordinator-context only: call it after DrainUntil returns, never
// mid-window. All shard clocks are equal then, so the forced releases
// trace at one uniform cutoff time and the trajectory is the same at any
// shard count. It returns how many channels were force-released and how
// many requests were cancelled.
func (p *Parallel) ForceQuiesce() (released, cancelled int) {
	p.teardown = true
	defer func() { p.teardown = false }()
	p.k.DiscardPending()
	for cell := range p.allocs {
		for {
			use := p.allocs[cell].InUse()
			if use.Empty() {
				break
			}
			p.Release(hexgrid.CellID(cell), use.First())
			released++
		}
	}
	p.k.DiscardPending()
	for i := range p.shards {
		sh := &p.shards[i]
		n := len(sh.pending)
		clear(sh.pending)
		sh.dog.Cancelled(n)
		p.obs.outstanding.Add(-float64(n))
		cancelled += n
		clear(sh.moved)
	}
	return released, cancelled
}

// ShardOutstanding returns the per-shard in-flight request counts, in
// shard order — drain diagnostics for the traffic layer's error paths.
func (p *Parallel) ShardOutstanding() []int {
	out := make([]int, len(p.shards))
	for i := range p.shards {
		out[i] = p.shards[i].dog.Outstanding()
	}
	return out
}

// CheckInvariant verifies Theorem 1 across the whole grid now. Only
// safe while the kernel is parked.
func (p *Parallel) CheckInvariant() error { return p.checker.CheckAll() }

// Outstanding returns the number of in-flight requests.
func (p *Parallel) Outstanding() int {
	n := 0
	for i := range p.shards {
		n += p.shards[i].dog.Outstanding()
	}
	return n
}

// Stalled reports whether any shard has requests outstanding for more
// than window ticks without progress (Theorem 2 violation symptom).
func (p *Parallel) Stalled(window sim.Time) bool {
	for i := range p.shards {
		if p.shards[i].dog.Stalled(p.now(i), window) {
			return true
		}
	}
	return false
}

// Executed returns the number of events executed so far.
func (p *Parallel) Executed() uint64 { return p.k.Executed() }

// Pending returns the number of queued events, unflushed mailbox entries
// included.
func (p *Parallel) Pending() int { return p.k.Pending() }

// Footprint reports what the kernel's queues hold and have held, summed
// over shards. Not during a run.
func (p *Parallel) Footprint() sim.Footprint { return p.k.Footprint() }

// Trace returns the retained lifecycle events (nil without TraceSize):
// in execution order under New, and under NewParallel merged across
// shards in canonical (At, Cell) order. A cell's events live in exactly
// one shard's ring, so ordering each shard's events and streaming them
// through a k-way merge yields exactly what a global stable sort over
// the concatenation would: (At, Cell) ties never span shards, and each
// cell's own order is preserved. The merge works per shard instead of
// gathering everything into one slice first and re-sorting it — at
// giant-grid scale the gather-all sort was the driver's largest
// post-run transient.
func (p *Parallel) Trace() []trace.Event {
	if p.engine != nil {
		if ring := p.shards[0].ring; ring != nil {
			return ring.Events()
		}
		return nil
	}
	lists := make([][]trace.Event, 0, len(p.shards))
	total := 0
	for i := range p.shards {
		if p.shards[i].ring == nil {
			continue
		}
		evs := p.shards[i].ring.Events()
		if len(evs) == 0 {
			continue
		}
		// Ring order is execution order: non-decreasing At within the
		// shard, but same-tick events may interleave cells (the heap
		// orders ties by origin, the trace by acted-on cell). A stable
		// per-shard sort fixes the tie order without touching the rest.
		sort.SliceStable(evs, func(a, b int) bool {
			if evs[a].At != evs[b].At {
				return evs[a].At < evs[b].At
			}
			return evs[a].Cell < evs[b].Cell
		})
		lists = append(lists, evs)
		total += len(evs)
	}
	if len(lists) == 0 {
		return nil
	}
	out := make([]trace.Event, 0, total)
	for len(lists) > 0 {
		min := 0
		for i := 1; i < len(lists); i++ {
			a, b := &lists[i][0], &lists[min][0]
			if a.At < b.At || (a.At == b.At && a.Cell < b.Cell) {
				min = i
			}
		}
		out = append(out, lists[min][0])
		if lists[min] = lists[min][1:]; len(lists[min]) == 0 {
			lists = append(lists[:min], lists[min+1:]...)
		}
	}
	return out
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

// Stats snapshots the aggregates, merging shard- and cell-local state
// in canonical order (ascending shard, ascending cell) so the result is
// bit-identical regardless of how the run was scheduled.
func (p *Parallel) Stats() Stats {
	st := Stats{
		CellGrants: make([]uint64, len(p.cells)),
		CellDenies: make([]uint64, len(p.cells)),
	}
	merged := metrics.NewHistogram(float64(p.opts.Latency)/2, p.opts.DelayBuckets)
	for i := range p.shards {
		sh := &p.shards[i]
		st.Grants += sh.grants
		st.Denies += sh.denies
		st.Messages.Add(sh.msgs)
		merged.Merge(sh.delayHist)
	}
	st.DelayP95 = merged.Quantile(0.95)
	for c, cs := range p.cells {
		st.CellGrants[c] = uint64(cs.grants)
		st.CellDenies[c] = uint64(cs.denies)
	}
	// One streaming pass over the packed records, in ascending cell
	// order: Welford merges are float-order-sensitive, so this fixed
	// order is part of the bit-identical-trajectory contract. (Under New
	// the one merge copies the grid's accumulators.)
	for c := range p.shared {
		acc := &p.shared[c]
		st.AcqDelay.Merge(acc.acqDelay)
		st.TotalDelay.Merge(acc.totalDelay)
		st.QueueDelay.Merge(acc.queueDelay)
	}
	for _, a := range p.allocs {
		if cp, ok := a.(alloc.CounterProvider); ok {
			st.Counters.Add(cp.ProtocolCounters())
		}
	}
	return st
}

// Warmer is an allocator that allocates its per-cell borrowing storage
// on first use (core.Adaptive): Warm reports whether it has.
type Warmer interface{ Warm() bool }

// WarmStations counts the cells whose allocator holds its borrowing
// storage (see Warmer), as of the call. It is not a Stats field: Stats is
// the run's outcome, identical however the storage is laid out. Only
// safe while the kernel is parked.
func (p *Parallel) WarmStations() int {
	n := 0
	for _, a := range p.allocs {
		if w, ok := a.(Warmer); ok && w.Warm() {
			n++
		}
	}
	return n
}

// ModeOccupancy returns the fraction of cells currently in each mode
// 0..3 (adaptive scheme introspection; other schemes report mode 0).
// Only safe while the kernel is parked.
func (p *Parallel) ModeOccupancy() [4]float64 {
	var counts [4]int
	for _, a := range p.allocs {
		m := a.Mode()
		if m >= 0 && m < 4 {
			counts[m]++
		}
	}
	var out [4]float64
	n := float64(len(p.allocs))
	for i, c := range counts {
		out[i] = float64(c) / n
	}
	return out
}

// newPending takes a node off the free list (or allocates one).
func (sh *parShard) newPending(cell hexgrid.CellID, now sim.Time, cb func(Result), cont Continuation) *pendingReq {
	var q *pendingReq
	if n := len(sh.reqFree); n > 0 {
		q = sh.reqFree[n-1]
		sh.reqFree = sh.reqFree[:n-1]
	} else {
		q = new(pendingReq)
	}
	*q = pendingReq{cell: cell, submitted: now, began: now, cb: cb, cont: cont}
	return q
}

// recycle returns a completed node to the free list. Callers must be
// done reading it (in particular, the completion callback has returned).
func (sh *parShard) recycle(q *pendingReq) {
	q.cb = nil // drop the closure reference
	sh.reqFree = append(sh.reqFree, q)
}

func (sh *parShard) traceEvent(e trace.Event) {
	if sh.ring != nil {
		sh.ring.Add(e)
	}
}
