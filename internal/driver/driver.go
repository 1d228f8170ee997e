// Package driver wires a scenario together: the hexagonal grid, the
// primary-channel plan, one allocator per cell, message delivery on the
// deterministic event kernel, the Theorem-1 interference checker and the
// Theorem-2 progress watchdog, plus the latency/traffic accounting every
// experiment reports. It exposes a programmatic request/release API;
// workload generation on top of it lives in internal/traffic.
//
// There is one driver on one event loop, sim.Shards. Cells are
// partitioned into contiguous tiles (hexgrid.Partition); each shard owns
// the driver state of its cells and the only interaction between shards
// is message delivery, which the kernel's lookahead windows (one latency
// T wide) make safe. New runs it at one shard, NewParallel at any shard
// count; they differ only in what the cells share (below).
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
// NewParallel merges the shards' rings in canonical (At, Cell) order,
// and exposes its kernel's serial view (Engine), whose unattributed
// events run before every cell's events of their tick.
//
// Two rules depend on the shard count, not on the constructor. Theorem 1
// is checked inside every granting event at one shard, and over the whole
// grid at every window barrier (a consistent cut) above it: reading a
// remote cell's row of the holdings table mid-window would race its
// shard. And a Journal is accepted at one shard only: JSONL emission
// order across shards is scheduling-dependent, which would silently
// break the byte-identical-artifacts contract (the metrics registry reads
// snapshots the coordinator publishes, and works at any).
package driver

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/reqbook"
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
	// Check enables the co-channel interference checker (Theorem 1). The
	// driver keeps a table of the channels it has reported granted and
	// not yet handed back (trace.Holdings), and checks that: each grant's
	// channel against the neighbors' rows at one shard, every
	// interfering pair at every window barrier above it, split over the
	// shard workers. After every call into a station, the cell's row must
	// equal the station's InUse(). Panics on violation or disagreement —
	// neither is a recoverable condition: the one falsifies the protocol,
	// the other the check. CheckInvariant asks the stations themselves,
	// with or without Check.
	Check bool
	// TraceSize, if positive, keeps a per-shard ring buffer of the most
	// recent lifecycle events for debugging.
	TraceSize int
	// Wire routes every message through the binary codec (encode on
	// send, decode on delivery), validating serialization against live
	// traffic and accounting wire bytes in Stats.Messages.Bytes.
	Wire bool
	// Obs, when non-nil, renders the run's own tallies into the registry:
	// request outcomes and those in flight, the acquisition delays, the
	// transport's message count, every scheme's protocol counts
	// (alloc.Tally) and the kernel's footprint. Nothing counts for it: the
	// driver publishes a snapshot of what Stats and Footprint report when
	// the kernel parks (the end of Run, Drain and DrainUntil), after
	// ForceQuiesce, and at a window barrier at most once per publishEvery
	// latencies of virtual time, and a scrape reads the last one.
	Obs *obs.Registry
	// Journal, when non-nil, receives request lifecycle records
	// (request/result/release) in addition to whatever the protocol
	// core emits through registry.Config.Journal. One shard only.
	Journal *obs.Journal
	// Shards is the number of tiles (default min(16, cells)); New fixes
	// it at 1. Per-cell results are shard-count-invariant.
	Shards int
	// Workers is the number of goroutines advancing and seeding shards
	// (default GOMAXPROCS, capped at Shards; a run uses at most GOMAXPROCS
	// of them, sim.Shards.Run). Never affects results.
	Workers int
}

// ParallelOptions is Options: NewParallel reads Shards and Workers, New
// overrides them.
type ParallelOptions = Options

// delayBuckets sizes the acquisition-delay histogram: 64 buckets of T/2.
const delayBuckets = 64

// publishEvery is the virtual time, in latencies T, that at least
// separates two snapshots the window barrier publishes for Options.Obs.
const publishEvery = 100

// check applies the defaults and rejects what no kernel can run.
func (o *Options) check(cells int) error {
	if o.Latency == 0 {
		o.Latency = 10
	}
	if o.Shards == 0 {
		o.Shards = min(16, cells)
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
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
	// book holds the shard's requests in flight, chained per cell.
	book reqbook.Book[Result]
	// moved[cell][old] queues repacking moves (Env.Moved) so a caller
	// releasing the channel it was granted reaches a channel its cell
	// actually holds. A queue (not a single alias): the same channel id
	// can be granted, moved, and re-granted repeatedly, leaving several
	// outstanding forwards. Calls are fungible tokens — any consistent
	// matching of releases to held channels preserves system state.
	moved map[hexgrid.CellID]map[chanset.Channel][]chanset.Channel
	// fault is the first failure of Options.Check this shard found when
	// there are several — a station that disagrees with its row, or a
	// co-channel pair one of whose cells the shard granted a channel —
	// for the next window barrier to raise.
	fault error
	// grew lists the shard's cells granted a channel, or moved onto one,
	// since the last barrier: the cells whose pairs that barrier checks
	// (Options.Check above one shard).
	grew []hexgrid.CellID
	dog  trace.Watchdog
	ring *trace.Ring
	msgs transport.Stats
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
	// kernel is the event loop: one shard under New.
	kernel *sim.Shards

	part    *hexgrid.Partition
	opts    Options
	checker *trace.InterferenceChecker
	// held is the table Options.Check checks Theorem 1 against, nil
	// without it. A cell's row is written only by its shard's worker.
	held   *trace.Holdings
	shards []parShard
	calls  CallHandler

	// envs is the per-cell record: the cell's allocator and its
	// environment, with the cell's RNG stream embedded by value, and the
	// cell's tallies and request chain, written only by the owning
	// shard's worker. Cell i's is &envs[i].
	envs []cellEnv

	// shared, jitters, own and stride are what the constructor makes the
	// cells share: a cell counts its requests and accumulates its delays
	// in shared[cell&own], draws its jitter (jittered runs only) from
	// jitters[cell&own], and request ids are spaced stride apart — a
	// record per cell, all ones and the cell count under NewParallel; one
	// record, 0 and 1 under New. See the package comment.
	shared  []shareStat
	jitters []sim.Rand
	own     hexgrid.CellID
	stride  int64

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

	// metrics is the snapshot Options.Obs renders, nil without it;
	// nextPublish is the virtual time from which a window barrier
	// publishes the next.
	metrics     atomic.Pointer[snapshot]
	nextPublish sim.Time
}

// Sim is Parallel; New returns one on the serial kernel.
type Sim = Parallel

// snapshot is what Options.Obs renders: the run's own tallies as the
// driver last published them. It is never written once published.
type snapshot struct {
	grants, denies, messages uint64
	outstanding              int
	acquire                  obs.HistogramValue
	tally                    alloc.Tally
	// kernel is the kernel's footprint as of the last time it parked:
	// its queues are not safe to walk mid-run.
	kernel sim.Footprint
}

// gridFanout resolves the kernel's fan records against the grid's
// interference lists: the lists alloc.Env.Neighbors hands the schemes.
type gridFanout struct{ grid *hexgrid.Grid }

func (f gridFanout) Neighbor(origin int32, i int) int32 {
	return int32(f.grid.Interference(hexgrid.CellID(origin))[i])
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
	// Built for one origin: at one shard the kernel grows its per-origin
	// tables as cells first post. Sizing them for every cell up front
	// moved when the collector runs enough to raise light-mobile-serial's
	// peak RSS by some 1.7 MB. prepare has checked the cell count against
	// the origin limit.
	p.kernel = sim.NewShards(1, p.opts.Latency, 1)
	p.shared, p.own, p.stride = make([]shareStat, 1), 0, 1
	if opts.Jitter > 0 {
		p.jitters = []sim.Rand{sim.SubstreamValue(opts.Seed, 0xfeed)}
	}
	p.start(factory)
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
	if opts.Jitter > 0 {
		p.jitters = make([]sim.Rand, cells)
		for c := range p.jitters {
			p.jitters[c] = sim.SubstreamValue(opts.Seed, 0x6a170000+uint64(c))
		}
	}
	p.start(factory)
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
		envs:       make([]cellEnv, cells),
		checkGrant: opts.Check && opts.Shards == 1,
	}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.delayHist = metrics.NewHistogram(float64(opts.Latency)/2, delayBuckets)
		if opts.TraceSize > 0 {
			sh.ring = trace.NewRing(opts.TraceSize)
		}
		if opts.Jitter > 0 {
			sh.lastAt = make(map[parLink]sim.Time)
		}
	}
	p.checker = trace.NewInterferenceChecker(grid, func(id hexgrid.CellID) chanset.Set {
		return p.envs[id].a.InUse()
	})
	if opts.Check {
		p.held = trace.NewHoldings(grid, assign.NumChannels)
	}
	return p, nil
}

// start binds the driver to its kernel and starts one allocator per
// cell.
func (p *Parallel) start(factory alloc.Factory) {
	p.kernel.Handle(sim.KindMessage, p)
	p.kernel.SetFanout(gridFanout{p.grid})
	for i := range p.envs {
		cell := hexgrid.CellID(i)
		env := &p.envs[i]
		*env = cellEnv{
			p:     p,
			a:     factory.New(cell),
			shard: int32(p.part.ShardOf(cell)),
			cell:  cell,
			rand:  sim.SubstreamValue(p.opts.Seed, uint64(i)+1),
		}
		env.a.Start(env)
	}
	checks := p.held != nil && !p.checkGrant // more than one shard: the sharded kernel
	// At every barrier, each shard's worker checks the pairs of the cells
	// it granted a channel in the window; then the coordinator raises what
	// they and the shards' events found.
	check := func(s int) {
		sh := &p.shards[s]
		if sh.fault == nil {
			sh.fault = p.held.Check(sh.grew)
		}
		sh.grew = sh.grew[:0]
	}
	if checks || p.opts.Obs != nil {
		p.kernel.SetBarrier(func() {
			if checks {
				p.kernel.Each(p.opts.Workers, check)
				p.raise()
			}
			if now := p.kernel.Now(0); p.opts.Obs != nil && now >= p.nextPublish {
				p.nextPublish = now + publishEvery*p.opts.Latency
				p.publish(false)
			}
		})
	}
	if r := p.opts.Obs; r != nil {
		p.publish(true)
		p.register(r)
	}
}

// publish stores the run's tallies for Options.Obs to render, and with
// parked the kernel's footprint; a no-op without a registry. Coordinator
// context: the kernel parked, or at a window barrier.
func (p *Parallel) publish(parked bool) {
	if p.opts.Obs == nil {
		return
	}
	st, delays := p.Stats(), p.delays()
	s := &snapshot{grants: st.Grants, denies: st.Denies, messages: st.Messages.Total, outstanding: p.Outstanding()}
	s.acquire = obs.HistogramValue{Count: delays.N(), Sum: math.Round(st.AcqDelay.Mean() * float64(st.AcqDelay.N()))}
	for _, k := range acquireBuckets(p.opts.Latency) {
		s.acquire.Cumulative = append(s.acquire.Cumulative, delays.Below(k))
	}
	for c := range p.envs {
		s.tally.Add(alloc.TallyOf(p.envs[c].a))
	}
	if parked {
		s.kernel = p.kernel.Footprint()
	} else {
		s.kernel = p.metrics.Load().kernel
	}
	p.metrics.Store(s)
}

// acquireBuckets returns the edges adca_acquire_ticks reports, as counts
// of the delay histogram's T/2 buckets: T/2, T, 2T, ... 32T, each edge a
// whole number of ticks once (at T = 1 the first two are one).
func acquireBuckets(latency sim.Time) []int {
	var ks []int
	for k := 1; k <= delayBuckets; k *= 2 {
		if n := len(ks); n == 0 || acquireBound(ks[n-1], latency) < acquireBound(k, latency) {
			ks = append(ks, k)
		}
	}
	return ks
}

// acquireBound is the le of the edge k T/2 buckets up: the histogram
// counts whole ticks below k·T/2, so at most ⌈k·T/2⌉−1.
func acquireBound(k int, latency sim.Time) float64 {
	return math.Ceil(float64(k)*float64(latency)/2) - 1
}

// register binds Options.Obs's families into r, each read from the last
// published snapshot.
func (p *Parallel) register(r *obs.Registry) {
	last := func() *snapshot { return p.metrics.Load() }
	count := func(name, help string, get func(*snapshot) uint64) {
		r.CounterFunc(name, help, func() float64 { return float64(get(last())) })
	}
	count("adca_transport_messages_total", "Protocol messages handed to the transport.",
		func(s *snapshot) uint64 { return s.messages })
	count("adca_requests_granted_total", "Channel requests completed with a grant.",
		func(s *snapshot) uint64 { return s.grants })
	count("adca_requests_denied_total", "Channel requests completed with a denial.",
		func(s *snapshot) uint64 { return s.denies })
	r.GaugeFunc("adca_requests_outstanding", "Channel requests currently in flight.",
		func() float64 { return float64(last().outstanding) })
	var bounds []float64
	for _, k := range acquireBuckets(p.opts.Latency) {
		bounds = append(bounds, acquireBound(k, p.opts.Latency))
	}
	r.HistogramFunc("adca_acquire_ticks", "Acquisition (protocol) delay of granted requests, in ticks.",
		bounds, func() obs.HistogramValue { return last().acquire })
	alloc.RegisterObs(r, func() alloc.Tally { return last().tally })
	help := map[string]string{
		"adca_kernel_bytes":        "Memory the event kernel's tables hold, as of the last time it parked.",
		"adca_kernel_pages":        "Pages the event kernel's paged tables hold, as of the last time it parked; pool is the high-water mark of event pages out at once.",
		"adca_kernel_peak_pending": "High-water mark of the event queues: records queued, and the events they stood for.",
		"adca_kernel_attachments":  "Message attachments posted so far: stored (parked), and satisfied by one already stored (shared).",
		"adca_kernel_batched":      "Batches the event queues have sorted out of their far logs so far (refills), and the records those batches moved (records).",
	}
	for _, g := range []struct {
		name, label, value string
		get                func(f *sim.Footprint) float64
	}{
		{"adca_kernel_bytes", "table", "heap", func(f *sim.Footprint) float64 { return float64(f.HeapBytes) }},
		{"adca_kernel_bytes", "table", "log", func(f *sim.Footprint) float64 { return float64(f.LogBytes) }},
		{"adca_kernel_bytes", "table", "attachments", func(f *sim.Footprint) float64 { return float64(f.AttBytes) }},
		{"adca_kernel_bytes", "table", "funcs", func(f *sim.Footprint) float64 { return float64(f.SideBytes) }},
		{"adca_kernel_bytes", "table", "routes", func(f *sim.Footprint) float64 { return float64(f.RouteBytes) }},
		{"adca_kernel_bytes", "table", "pool", func(f *sim.Footprint) float64 { return float64(f.PoolBytes) }},
		{"adca_kernel_pages", "table", "heap", func(f *sim.Footprint) float64 { return float64(f.HeapPages) }},
		{"adca_kernel_pages", "table", "log", func(f *sim.Footprint) float64 { return float64(f.LogPages) }},
		{"adca_kernel_pages", "table", "pool", func(f *sim.Footprint) float64 { return float64(f.PoolPages) }},
		{"adca_kernel_pages", "table", "attachments", func(f *sim.Footprint) float64 { return float64(f.AttPages) }},
		{"adca_kernel_peak_pending", "unit", "records", func(f *sim.Footprint) float64 { return float64(f.PeakRecords) }},
		{"adca_kernel_peak_pending", "unit", "events", func(f *sim.Footprint) float64 { return float64(f.PeakEvents) }},
		{"adca_kernel_attachments", "how", "parked", func(f *sim.Footprint) float64 { return float64(f.AttParked) }},
		{"adca_kernel_attachments", "how", "shared", func(f *sim.Footprint) float64 { return float64(f.AttShared) }},
		{"adca_kernel_batched", "unit", "refills", func(f *sim.Footprint) float64 { return float64(f.Refills) }},
		{"adca_kernel_batched", "unit", "records", func(f *sim.Footprint) float64 { return float64(f.Batched) }},
	} {
		r.GaugeFunc(g.name, help[g.name], func() float64 { return g.get(&last().kernel) }, g.label, g.value)
	}
}

// agree checks that cell's row of the holdings table (Options.Check)
// equals its station's Use set; a no-op without Check. Called after
// every call into the station: a station's set changes only inside
// events at its cell, so at every event boundary each row is its
// station's set, and a grant's one channel is all Theorem 1 needs to
// look at.
func (p *Parallel) agree(cell hexgrid.CellID) {
	if p.held == nil {
		return
	}
	if row, use := p.held.Row(cell), p.envs[cell].a.InUse(); !row.Equal(use) {
		p.fail(cell, fmt.Errorf("driver: cell %d's station uses %v, but the driver granted it %v and has not released them", cell, use, row))
	}
}

// fail reports a failure of Options.Check found at cell: a panic now at
// one shard; above it, at the next window barrier — a shard worker may be
// running this, and a panic on the coordinator is one the caller can
// recover.
func (p *Parallel) fail(cell hexgrid.CellID, err error) {
	if p.checkGrant {
		panic(err)
	}
	if sh := &p.shards[p.part.ShardOf(cell)]; sh.fault == nil {
		sh.fault = err
	}
}

// raise panics with the fault of the lowest shard that has one.
// Coordinator context only.
func (p *Parallel) raise() {
	for i := range p.shards {
		if err := p.shards[i].fault; err != nil {
			panic(err)
		}
	}
}

// Engine exposes the event kernel's serial view under New, where
// unattributed events (sim.Engine.At) keep their place before every
// cell's events of the same tick; nil under NewParallel, at any shard
// count.
func (p *Parallel) Engine() *sim.Engine {
	if p.own != 0 {
		return nil
	}
	return p.kernel.Engine()
}

// Kernel exposes the event kernel: one shard under New.
func (p *Parallel) Kernel() *sim.Shards { return p.kernel }

// SetCallHandler installs the workload layer's interpreter of the
// call-lifecycle event kinds and of RequestCont continuations. Pre-run
// only.
func (p *Parallel) SetCallHandler(h CallHandler) {
	p.calls = h
	for _, k := range callKinds {
		p.kernel.Handle(k, h)
	}
}

// HandleEvent implements sim.Handler for KindMessage: deliver the
// message to its destination cell's allocator, on that cell's shard.
func (p *Parallel) HandleEvent(ev sim.Event, att sim.Attachment) {
	p.envs[ev.Cell].a.Handle(transport.MessageOf(ev, att))
	p.agree(hexgrid.CellID(ev.Cell))
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
func (p *Parallel) Allocator(cell hexgrid.CellID) alloc.Allocator { return p.envs[cell].a }

// ShardOf returns the shard that owns cell.
func (p *Parallel) ShardOf(cell hexgrid.CellID) int { return p.part.ShardOf(cell) }

// Now returns cell's shard-local virtual time.
func (p *Parallel) Now(cell hexgrid.CellID) sim.Time { return p.kernel.Now(p.part.ShardOf(cell)) }

// PostAt schedules the typed event ev at absolute time at in cell's
// shard, with the cell as the event's origin. Callable before Run or
// from an event already executing in that shard (workload generators
// are built this way).
func (p *Parallel) PostAt(cell hexgrid.CellID, at sim.Time, ev sim.Event) {
	p.kernel.Post(p.part.ShardOf(cell), at, int32(cell), ev, sim.Attachment{})
}

// PostAfter schedules ev delay ticks from cell's shard-local now.
func (p *Parallel) PostAfter(cell hexgrid.CellID, delay sim.Time, ev sim.Event) {
	s := p.part.ShardOf(cell)
	p.kernel.Post(s, p.kernel.Now(s)+delay, int32(cell), ev, sim.Attachment{})
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
	p.kernel.PostCross(src, p.part.ShardOf(to), p.kernel.Now(src)+p.opts.Latency, int32(from), ev, sim.Attachment{})
}

// At schedules fn at absolute time at in cell's shard, with the cell as
// the event's origin. Same context rule as PostAt.
func (p *Parallel) At(cell hexgrid.CellID, at sim.Time, fn func()) {
	p.kernel.At(p.part.ShardOf(cell), at, int32(cell), fn)
}

// After schedules fn delay ticks from cell's shard-local now.
func (p *Parallel) After(cell hexgrid.CellID, delay sim.Time, fn func()) {
	p.kernel.After(p.part.ShardOf(cell), delay, int32(cell), fn)
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
	now := p.kernel.Now(si)
	chain := &p.envs[cell].chain
	sh.book.Push(chain, reqbook.Rec{ID: id, Submitted: now, Hold: cont.Hold, Peer: cont.Cell, Ch: cont.Ch, Op: cont.Op, Flag: cont.Flag}, cb)
	sh.dog.Submitted(now)
	if p.opts.Journal != nil {
		p.opts.Journal.Emit(int64(now), "request", int(cell), obs.FI("req", int64(id)))
	}
	sh.traceEvent(trace.Event{At: now, Kind: trace.EvRequest, Cell: cell, Ch: chanset.NoChannel, Info: int64(id)})
	sh.book.HandOver(chain, p.envs[cell].a)
	p.agree(cell)
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
	if m := sh.moved[cell]; m != nil && !p.envs[cell].a.InUse().Contains(ch) {
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
	now := p.kernel.Now(si)
	if p.opts.Journal != nil {
		p.opts.Journal.Emit(int64(now), "release", int(cell), obs.FI("ch", int64(ch)))
	}
	sh.traceEvent(trace.Event{At: now, Kind: trace.EvRelease, Cell: cell, Ch: ch})
	if p.held != nil {
		p.held.Drop(cell, ch)
	}
	if err := p.envs[cell].a.Release(ch); err != nil {
		// In the deterministic sim an unheld release is a driver bug,
		// not an environmental fault — fail loudly.
		panic(err)
	}
	p.agree(cell)
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
// force-releases every held channel in ascending (cell, in-use-set)
// order — each release goes through the normal allocator path, so
// allocator state and traces stay canonical, but with protocol sends
// suppressed (teardown): the messages could never be delivered before
// the cutoff — then discards every queued event, what the releases
// queued and, without SetCutoff, what was due past the cutoff, and
// cancels the remaining in-flight requests: no callback, no grant/deny
// count, no trace event, so no order to observe. Each shard's request
// book is emptied, pages kept: the records of the cancelled requests
// simply become free.
// Coordinator-context only: call it after DrainUntil returns, never
// mid-window. All shard clocks are equal then, so the forced releases
// trace at one uniform cutoff time and the trajectory is the same at any
// shard count. It returns how many channels were force-released and how
// many requests were cancelled.
func (p *Parallel) ForceQuiesce() (released, cancelled int) {
	p.teardown = true
	defer func() { p.teardown = false }()
	for cell := range p.envs {
		for {
			use := p.envs[cell].a.InUse()
			if use.Empty() {
				break
			}
			p.Release(hexgrid.CellID(cell), use.First())
			released++
		}
	}
	p.kernel.DiscardPending()
	for i := range p.shards {
		sh := &p.shards[i]
		n := sh.dog.Outstanding()
		sh.book.Reset()
		sh.dog.Cancelled(n)
		cancelled += n
		clear(sh.moved)
	}
	p.raise() // what the forced releases found: no barrier follows
	for c := range p.envs {
		p.envs[c].chain, p.envs[c].began = reqbook.Chain{}, 0
	}
	p.publish(true)
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
		if p.shards[i].dog.Stalled(p.kernel.Now(i), window) {
			return true
		}
	}
	return false
}

// Executed returns the number of events executed so far.
func (p *Parallel) Executed() uint64 { return p.kernel.Executed() }

// Pending returns the number of queued events, unflushed mailbox entries
// included.
func (p *Parallel) Pending() int { return p.kernel.Pending() }

// Footprint reports what the kernel's queues hold and have held, summed
// over shards. Not during a run.
func (p *Parallel) Footprint() sim.Footprint { return p.kernel.Footprint() }

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
	if p.own == 0 { // New
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

// Dump lists the report as exact integers (metrics.Dump): the counts,
// the transport's tallies by kind and fault, each delay accumulator, the
// p95, the protocol counters and the per-cell tallies.
func (st Stats) Dump() metrics.Dump {
	d := make(metrics.Dump, 0, 48+2*len(st.CellGrants))
	d.Put("grants", st.Grants)
	d.Put("denies", st.Denies)
	d = append(d, st.Messages.Dump("messages")...)
	d.PutWelford("acq_delay", st.AcqDelay)
	d.PutWelford("total_delay", st.TotalDelay)
	d.PutWelford("queue_delay", st.QueueDelay)
	d.PutFloat("delay_p95", st.DelayP95)
	c := st.Counters
	d.Put("grants_local", c.GrantsLocal)
	d.Put("grants_update", c.GrantsUpdate)
	d.Put("grants_search", c.GrantsSearch)
	d.Put("drops", c.Drops)
	d.Put("update_attempts", c.UpdateAttempts)
	d.Put("mode_changes", c.ModeChanges)
	d.Put("bad_releases", c.BadReleases)
	d.Put("deferred", c.Deferred)
	d.Put("bad_messages", c.BadMessages)
	d.Put("cells", uint64(len(st.CellGrants)))
	d.PutSeries("cell_grants", st.CellGrants)
	d.PutSeries("cell_denies", st.CellDenies)
	return d
}

// Stats snapshots the aggregates, merging shard- and cell-local state
// in canonical order (ascending shard, ascending cell) so the result is
// bit-identical regardless of how the run was scheduled.
func (p *Parallel) Stats() Stats {
	st := Stats{
		CellGrants: make([]uint64, len(p.envs)),
		CellDenies: make([]uint64, len(p.envs)),
	}
	for i := range p.shards {
		sh := &p.shards[i]
		st.Grants += sh.grants
		st.Denies += sh.denies
		st.Messages.Add(sh.msgs)
	}
	st.DelayP95 = p.delays().Quantile(0.95)
	for c := range p.envs {
		st.CellGrants[c] = uint64(p.envs[c].grants)
		st.CellDenies[c] = uint64(p.envs[c].denies)
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
	for c := range p.envs {
		if cp, ok := p.envs[c].a.(alloc.CounterProvider); ok {
			st.Counters.Add(cp.ProtocolCounters())
		}
	}
	return st
}

// delays merges the shards' acquisition-delay histograms (integer
// counts, order-insensitive).
func (p *Parallel) delays() *metrics.Histogram {
	merged := metrics.NewHistogram(float64(p.opts.Latency)/2, delayBuckets)
	for i := range p.shards {
		merged.Merge(p.shards[i].delayHist)
	}
	return merged
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
	for c := range p.envs {
		if w, ok := p.envs[c].a.(Warmer); ok && w.Warm() {
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
	for c := range p.envs {
		m := p.envs[c].a.Mode()
		if m >= 0 && m < 4 {
			counts[m]++
		}
	}
	var out [4]float64
	n := float64(len(p.envs))
	for i, c := range counts {
		out[i] = float64(c) / n
	}
	return out
}

func (sh *parShard) traceEvent(e trace.Event) {
	if sh.ring != nil {
		sh.ring.Add(e)
	}
}
