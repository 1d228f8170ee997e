package driver

// Parallel is the sharded counterpart of Sim: the same wiring (grid,
// primary plan, one allocator per cell, interference checker, latency
// accounting) on top of the conservative parallel kernel sim.Shards
// instead of the serial sim.Engine. Cells are partitioned into
// contiguous tiles (hexgrid.Partition); each shard owns the driver
// state of its cells, and the only cross-shard interaction is message
// delivery, which the kernel's lookahead windows make safe.
//
// Determinism: a run's trajectory — every per-cell stat, the trace, and
// the final channel sets — is a function of (scenario, seed, shard
// count) only. The worker count changes wall-clock, never results; the
// shard count is part of the scenario (fixed defaults keep it machine-
// independent). See DESIGN.md §9.4 for the argument.
//
// Divergences from the serial Sim, all deliberate:
//   - Request IDs are derived per cell (id = count*N + cell + 1) instead
//     of a global counter, so issuing them needs no cross-shard
//     coordination. IDs are correlation tokens only — the protocol
//     never puts them in messages — so trajectories are unaffected.
//   - Theorem-1 checking runs at every window barrier (a consistent
//     cut) rather than per grant: reading a remote cell's channel set
//     mid-window would race its shard.
//   - No Journal option: JSONL emission order across shards is
//     scheduling-dependent, which would silently break the byte-
//     identical-artifacts contract. Use the serial driver for journals.

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"

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

// ParallelOptions configure a sharded simulation. The embedded fields
// mirror Options; Shards and Workers control the kernel.
type ParallelOptions struct {
	// Latency is the one-way message delay T in ticks (default 10). It
	// is also the kernel's lookahead window width.
	Latency sim.Time
	// Jitter adds a uniform extra delay in [0, Jitter] per message,
	// drawn from a per-sender-cell substream (the serial driver uses one
	// global jitter stream, so jittered serial and sharded runs are
	// distinct scenarios; unjittered runs need no stream at all).
	Jitter sim.Time
	// Seed drives all randomness (per-cell substreams are derived with
	// the same labels as the serial driver).
	Seed uint64
	// Check verifies Theorem 1 over the whole grid at every window
	// barrier. Panics on violation.
	Check bool
	// TraceSize, if positive, keeps a per-shard ring of the most recent
	// lifecycle events; Trace() merges them in canonical order.
	TraceSize int
	// Wire routes every message through the binary codec.
	Wire bool
	// DelayBuckets sizes the acquisition-delay histogram (default 64).
	DelayBuckets int
	// Obs binds the driver-level instruments (all atomic, so shard
	// workers may increment them concurrently).
	Obs *obs.Registry
	// Shards is the number of tiles (default min(16, cells)). It is part
	// of the scenario: different shard counts are different (each
	// internally deterministic) trajectories only through the per-cell
	// request-id derivation — per-cell results are shard-count-invariant.
	Shards int
	// Workers is the number of goroutines advancing shards (default
	// NumCPU, capped at Shards). Never affects results.
	Workers int
}

func (o *ParallelOptions) applyDefaults(cells int) {
	if o.Latency == 0 {
		o.Latency = 10
	}
	if o.DelayBuckets == 0 {
		o.DelayBuckets = 64
	}
	if o.Shards == 0 {
		o.Shards = 16
		if cells < o.Shards {
			o.Shards = cells
		}
	}
	if o.Workers == 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.Workers > o.Shards {
		o.Workers = o.Shards
	}
}

// parShard is one shard's private driver state. Only the shard's worker
// (or the coordinator between windows) touches it.
type parShard struct {
	pending map[alloc.RequestID]*pendingReq
	reqFree []*pendingReq
	moved   map[hexgrid.CellID]map[chanset.Channel][]chanset.Channel
	dog     trace.Watchdog
	ring    *trace.Ring
	msgs    transport.Stats
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

// cellStat packs one cell's accumulators into a single record so the
// per-cell state is one slab allocation and one cache line group per
// cell instead of six parallel arrays — at 10^6 cells the layout (not
// the byte count alone) dominates merge and grant-path locality. Grants
// and denies are uint32: 4 billion completions per cell is far beyond
// any run length, and the width keeps the record at 144 bytes.
type cellStat struct {
	acqDelay   metrics.Welford
	totalDelay metrics.Welford
	queueDelay metrics.Welford
	reqCount   uint64
	grants     uint32
	denies     uint32
}

// Parallel is one wired sharded scenario.
type Parallel struct {
	grid    *hexgrid.Grid
	assign  *chanset.Assignment
	kernel  *sim.Shards
	part    *hexgrid.Partition
	allocs  []alloc.Allocator
	opts    ParallelOptions
	checker *trace.InterferenceChecker
	shards  []parShard
	calls   CallHandler

	// Per-cell accumulators, written only by the owning shard's worker.
	cells []cellStat
	// envs is the per-cell allocator environment slab; cell i's env is
	// &envs[i], with its RNG stream embedded by value.
	envs []pcellEnv

	// teardown is set for the span of ForceQuiesce (coordinator
	// context, kernel parked — never read concurrently): protocol
	// messages the forced releases would send are suppressed, exactly
	// as on the serial driver.
	teardown bool

	obs simObs
}

// NewParallel wires a sharded simulation. The factory builds one
// allocator per cell, exactly as driver.New does.
func NewParallel(grid *hexgrid.Grid, assign *chanset.Assignment, factory alloc.Factory, opts ParallelOptions) (*Parallel, error) {
	cells := grid.NumCells()
	opts.applyDefaults(cells)
	if opts.Latency < 1 {
		return nil, fmt.Errorf("driver: parallel kernel needs latency >= 1, got %d", opts.Latency)
	}
	if err := sim.CheckOrigins(cells); err != nil {
		return nil, fmt.Errorf("driver: %w", err)
	}
	part, err := grid.Partition(opts.Shards)
	if err != nil {
		return nil, err
	}
	p := &Parallel{
		grid:   grid,
		assign: assign,
		kernel: sim.NewShards(opts.Shards, opts.Latency, cells),
		part:   part,
		opts:   opts,
		shards: make([]parShard, opts.Shards),
		cells:  make([]cellStat, cells),
		envs:   make([]pcellEnv, cells),
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
	p.kernel.Handle(sim.KindMessage, p)
	p.kernel.SetFanout(gridFanout{grid})
	p.obs.bind(opts.Obs, nil, opts.Latency)
	p.allocs = make([]alloc.Allocator, cells)
	for i := range p.allocs {
		cell := hexgrid.CellID(i)
		a := factory.New(cell)
		p.allocs[i] = a
		env := &p.envs[i]
		*env = pcellEnv{
			p:     p,
			shard: part.ShardOf(cell),
			cell:  cell,
			rand:  sim.SubstreamValue(opts.Seed, uint64(i)+1),
		}
		if opts.Jitter > 0 {
			env.jitter = sim.Substream(opts.Seed, 0x6a170000+uint64(i))
		}
		a.Start(env)
	}
	p.checker = trace.NewInterferenceChecker(grid, func(id hexgrid.CellID) chanset.Set {
		return p.allocs[id].InUse()
	})
	if opts.Check {
		p.kernel.SetBarrier(func() {
			if err := p.checker.CheckAll(); err != nil {
				panic(err)
			}
		})
	}
	return p, nil
}

// Kernel exposes the sharded event kernel.
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

// Workers returns the configured worker count.
func (p *Parallel) Workers() int { return p.opts.Workers }

// Allocator returns the allocator of the given cell (for inspection;
// only safe while the kernel is parked).
func (p *Parallel) Allocator(cell hexgrid.CellID) alloc.Allocator { return p.allocs[cell] }

// ShardOf returns the shard that owns cell.
func (p *Parallel) ShardOf(cell hexgrid.CellID) int { return p.part.ShardOf(cell) }

// Now returns cell's shard-local virtual time.
func (p *Parallel) Now(cell hexgrid.CellID) sim.Time {
	return p.kernel.Now(p.part.ShardOf(cell))
}

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
// the event's origin. Callable before Run or from an event already
// executing in that shard (workload generators are built this way).
func (p *Parallel) At(cell hexgrid.CellID, at sim.Time, fn func()) {
	p.kernel.At(p.part.ShardOf(cell), at, int32(cell), fn)
}

// After schedules fn delay ticks from cell's shard-local now.
func (p *Parallel) After(cell hexgrid.CellID, delay sim.Time, fn func()) {
	p.kernel.After(p.part.ShardOf(cell), delay, int32(cell), fn)
}

// ReserveShard pre-sizes shard s's event heap (Erlang estimate from the
// workload, mirroring Engine.Reserve). Absurd hints are rejected with a
// descriptive error (see sim.Shards.Reserve).
func (p *Parallel) ReserveShard(s, n int) error { return p.kernel.Reserve(s, n) }

// ReserveOutbox pre-sizes the src->dst mailbox, materializing the
// route. Absurd hints are rejected like ReserveShard's.
func (p *Parallel) ReserveOutbox(src, dst, n int) error { return p.kernel.ReserveOutbox(src, dst, n) }

// Request submits a channel request at cell; cb (optional) runs on
// completion, on the cell's shard. Must be called before Run/Drain or
// from an event executing in the cell's own shard. IDs are unique
// across cells but per-cell derived, not globally sequential.
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
	id := alloc.RequestID(int64(p.cells[cell].reqCount)*int64(p.grid.NumCells()) + int64(cell) + 1)
	p.cells[cell].reqCount++
	now := p.kernel.Now(si)
	sh.pending[id] = sh.newPending(cell, now, cb, cont)
	sh.dog.Submitted(now)
	p.obs.outstanding.Add(1)
	sh.traceEvent(trace.Event{At: now, Kind: trace.EvRequest, Cell: cell, Ch: chanset.NoChannel, Info: int64(id)})
	p.allocs[cell].Request(id)
	return id
}

// Release returns channel ch at cell to the pool, with the same
// moved-channel forwarding as the serial driver. Same shard-context
// rule as Request.
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
	sh.traceEvent(trace.Event{At: p.kernel.Now(si), Kind: trace.EvRelease, Cell: cell, Ch: ch})
	if err := p.allocs[cell].Release(ch); err != nil {
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

// Run advances all shards in lockstep windows to until.
func (p *Parallel) Run(until sim.Time) {
	p.kernel.Run(p.opts.Workers, until)
	p.obs.footprint(p.kernel)
}

// Drain runs to quiescence with a backstop; it reports whether every
// queue emptied.
func (p *Parallel) Drain(maxEvents uint64) bool {
	drained := p.kernel.Drain(p.opts.Workers, maxEvents)
	p.obs.footprint(p.kernel)
	return drained
}

// DrainUntil executes every event at or before cutoff — window
// boundaries and barrier samples before the cutoff are exactly those of
// a full Drain — and parks every shard clock there, leaving later
// events queued for ForceQuiesce. It reports whether all due events ran
// (false only on the maxEvents backstop).
func (p *Parallel) DrainUntil(cutoff sim.Time, maxEvents uint64) bool {
	done := p.kernel.DrainUntil(p.opts.Workers, cutoff, maxEvents)
	p.obs.footprint(p.kernel)
	return done
}

// ForceQuiesce terminates a truncated run at the current clock with the
// same canonical sweep as the serial driver's ForceQuiesce: discard
// queued events, force-release every held channel in ascending
// (cell, in-use-set) order through the normal Release path (protocol
// sends suppressed — teardown — since nothing can be delivered before
// the cutoff), discard what the releases did queue, then cancel every
// in-flight request: no callback, no grant/deny count, no trace event,
// so no order to observe. The cancelled nodes are left to the collector
// — the run is over, and a free list of them would sit on top of its
// peak.
// Coordinator-context only: call it after DrainUntil returns, never
// mid-window. All shard clocks are equal then, so the forced releases
// trace at one uniform cutoff time and the merged trace reproduces the
// serial driver's byte-for-byte. It returns how many channels were
// force-released and how many requests were cancelled.
func (p *Parallel) ForceQuiesce() (released, cancelled int) {
	p.teardown = true
	defer func() { p.teardown = false }()
	p.kernel.DiscardPending()
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
	p.kernel.DiscardPending()
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
// than window ticks without progress.
func (p *Parallel) Stalled(window sim.Time) bool {
	for i := range p.shards {
		if p.shards[i].dog.Stalled(p.kernel.Now(i), window) {
			return true
		}
	}
	return false
}

// Trace returns the retained lifecycle events merged across shards in
// canonical (At, Cell) order. A cell's events live in exactly one
// shard's ring, so ordering each shard's events and streaming them
// through a k-way merge yields exactly what a global stable sort over
// the concatenation would: (At, Cell) ties never span shards, and each
// cell's own order is preserved. The merge works per shard instead of
// gathering everything into one slice first and re-sorting it — at
// giant-grid scale the gather-all sort was the driver's largest
// post-run transient.
func (p *Parallel) Trace() []trace.Event {
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
	// One streaming pass over the packed per-cell records, in ascending
	// cell order: Welford merges are float-order-sensitive, so this
	// fixed order is part of the bit-identical-trajectory contract.
	for c := range p.cells {
		cs := &p.cells[c]
		st.CellGrants[c] = uint64(cs.grants)
		st.CellDenies[c] = uint64(cs.denies)
		st.AcqDelay.Merge(cs.acqDelay)
		st.TotalDelay.Merge(cs.totalDelay)
		st.QueueDelay.Merge(cs.queueDelay)
	}
	for _, a := range p.allocs {
		if cp, ok := a.(alloc.CounterProvider); ok {
			st.Counters.Add(cp.ProtocolCounters())
		}
	}
	return st
}

// ModeOccupancy returns the fraction of cells in each mode. Only safe
// while the kernel is parked.
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

func (sh *parShard) recycle(q *pendingReq) {
	q.cb = nil
	sh.reqFree = append(sh.reqFree, q)
}

func (sh *parShard) traceEvent(e trace.Event) {
	if sh.ring != nil {
		sh.ring.Add(e)
	}
}

// pcellEnv implements alloc.Env for one cell on the sharded kernel.
// Instances live in Parallel.envs, one slab for the whole grid, with
// the cell's RNG stream embedded by value (the jitter stream stays a
// pointer: it exists only for jittered scenarios).
type pcellEnv struct {
	p      *Parallel
	shard  int
	cell   hexgrid.CellID
	rand   sim.Rand
	jitter *sim.Rand
}

func (e *pcellEnv) ID() hexgrid.CellID          { return e.cell }
func (e *pcellEnv) Neighbors() []hexgrid.CellID { return e.p.grid.Interference(e.cell) }
func (e *pcellEnv) Now() sim.Time               { return e.p.kernel.Now(e.shard) }
func (e *pcellEnv) Latency() sim.Time           { return e.p.opts.Latency }
func (e *pcellEnv) Rand() *sim.Rand             { return &e.rand }

// Send delivers m after the latency (plus jitter). Deliveries carry the
// *sender* as the event origin: the canonical key is then assigned
// entirely within the sending shard, which is what makes cross-shard
// ordering deterministic.
func (e *pcellEnv) Send(m message.Message) {
	if e.p.teardown {
		return
	}
	if m.From != e.cell {
		m.From = e.cell
	}
	p := e.p
	sh := &p.shards[e.shard]
	p.obs.messages.Inc()
	sh.msgs.Count(m)
	if p.opts.Wire {
		sh.wireBuf = message.Encode(sh.wireBuf[:0], m)
		sh.msgs.Bytes += uint64(len(sh.wireBuf))
		decoded, n, err := message.Decode(sh.wireBuf)
		if err != nil || n != len(sh.wireBuf) {
			panic(fmt.Sprintf("driver: codec round trip failed for %v: %v", m, err))
		}
		m = decoded
	}
	at := p.kernel.Now(e.shard) + p.opts.Latency
	if p.opts.Jitter > 0 {
		at += sim.Time(e.jitter.Intn(int(p.opts.Jitter) + 1))
		key := parLink{m.From, m.To}
		if last := sh.lastAt[key]; at < last {
			at = last
		}
		sh.lastAt[key] = at
	}
	ev, att := transport.EventOf(m)
	p.kernel.PostCross(e.shard, p.part.ShardOf(m.To), at, int32(e.cell), ev, att)
}

// Multicast implements alloc.Multicaster. The destinations of one send
// that live in one shard are consecutive in send order — so they hold
// consecutive counters of the sender — and go out as one fan record per
// maximal such run (one per destination shard: neighbour lists are
// sorted and shards are contiguous id ranges, though the grouping does
// not rely on it). With jitter or the codec on, every destination has
// its own due time, RNG draw and round trip, and a message carrying an
// attachment parks one per destination: those go out by Send.
func (e *pcellEnv) Multicast(m message.Message, mask []uint64) {
	p := e.p
	ev, att := transport.EventOf(m)
	neighbors := e.Neighbors()
	if p.opts.Jitter > 0 || p.opts.Wire || !att.Empty() || len(neighbors) > sim.MaxFanNeighbors {
		alloc.SendEach(e, m, mask)
		return
	}
	if p.teardown {
		return
	}
	at := p.kernel.Now(e.shard) + p.opts.Latency
	sent := 0
	for w := 0; w*64 < len(neighbors); w++ {
		word := sim.FanWord(mask, len(neighbors), w)
		sent += bits.OnesCount64(word)
		for word != 0 {
			dst := p.part.ShardOf(neighbors[w*64+bits.TrailingZeros64(word)])
			run := word & -word
			for rest := word &^ run; rest != 0 && p.part.ShardOf(neighbors[w*64+bits.TrailingZeros64(rest)]) == dst; rest &= rest - 1 {
				run |= rest & -rest
			}
			p.kernel.PostFan(e.shard, dst, at, int32(e.cell), ev, w, run)
			word &^= run
		}
	}
	p.obs.messages.Add(uint64(sent))
	p.shards[e.shard].msgs.CountN(m, sent)
}

func (e *pcellEnv) Began(id alloc.RequestID) {
	sh := &e.p.shards[e.shard]
	if q, ok := sh.pending[id]; ok {
		q.began = e.p.kernel.Now(e.shard)
	}
}

func (e *pcellEnv) Moved(from, to chanset.Channel) {
	sh := &e.p.shards[e.shard]
	if sh.moved == nil {
		sh.moved = make(map[hexgrid.CellID]map[chanset.Channel][]chanset.Channel)
	}
	m := sh.moved[e.cell]
	if m == nil {
		m = make(map[chanset.Channel][]chanset.Channel)
		sh.moved[e.cell] = m
	}
	m[from] = append(m[from], to)
}

func (e *pcellEnv) Granted(id alloc.RequestID, ch chanset.Channel) {
	p := e.p
	sh := &p.shards[e.shard]
	q, ok := sh.pending[id]
	if !ok {
		panic(fmt.Sprintf("driver: grant for unknown request %d at cell %d", id, e.cell))
	}
	delete(sh.pending, id)
	now := p.kernel.Now(e.shard)
	sh.dog.Completed(now)
	sh.grants++
	cs := &p.cells[e.cell]
	cs.grants++
	cs.acqDelay.Observe(float64(now - q.began))
	cs.totalDelay.Observe(float64(now - q.submitted))
	cs.queueDelay.Observe(float64(q.began - q.submitted))
	sh.delayHist.Observe(float64(now - q.began))
	p.obs.granted.Inc()
	p.obs.outstanding.Add(-1)
	p.obs.acquire.Observe(float64(now - q.began))
	sh.traceEvent(trace.Event{At: now, Kind: trace.EvGrant, Cell: e.cell, Ch: ch, Info: int64(id)})
	q.complete(p.calls, Result{
		ID: id, Cell: e.cell, Granted: true, Ch: ch,
		Submitted: q.submitted, Began: q.began, Done: now,
	})
	sh.recycle(q)
}

func (e *pcellEnv) Denied(id alloc.RequestID) {
	p := e.p
	sh := &p.shards[e.shard]
	q, ok := sh.pending[id]
	if !ok {
		panic(fmt.Sprintf("driver: denial for unknown request %d at cell %d", id, e.cell))
	}
	delete(sh.pending, id)
	now := p.kernel.Now(e.shard)
	sh.dog.Completed(now)
	sh.denies++
	p.cells[e.cell].denies++
	p.obs.denied.Inc()
	p.obs.outstanding.Add(-1)
	sh.traceEvent(trace.Event{At: now, Kind: trace.EvDeny, Cell: e.cell, Ch: chanset.NoChannel, Info: int64(id)})
	q.complete(p.calls, Result{
		ID: id, Cell: e.cell, Granted: false, Ch: chanset.NoChannel,
		Submitted: q.submitted, Began: q.began, Done: now,
	})
	sh.recycle(q)
}
