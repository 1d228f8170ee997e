package sim

// Conservative parallel DES kernel. The grid is sharded into contiguous
// tiles (hexgrid.Partition); each shard owns a private event queue (the
// same flat-record 4-ary heap the serial Engine runs on, queue.go) and
// advances in lockstep windows of width equal to the lookahead (the
// one-way message latency T). Within a window [W, W+T) shards execute
// independently: an event at time t can only affect another shard via a
// message delivered at >= t+T >= W+T, i.e. in a later window. Cross-shard
// sends land in per-(src,dst) mailboxes that are merged into the
// destination heaps at the window barrier.
//
// Determinism contract: events are totally ordered by the canonical key
// (at, origin, counter) where origin is the cell whose handler scheduled
// the event (for message deliveries, the *sender*) and counter is a
// per-origin monotone count assigned at scheduling time. All of a cell's
// events execute in the cell's owning shard, every event is present in
// that heap before its due time (cross-shard events are merged at the
// barrier preceding their window), and the key is computed shard-locally
// — so per-cell trajectories are byte-identical at any shard count and
// any worker count. The mailbox merge order (ascending source shard)
// does not affect execution order because the heap re-orders by key;
// it is fixed anyway so heap layouts, and therefore any tie-breaking
// bug, would reproduce exactly.

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"unsafe"
)

// outRoute buffers cross-shard events from one shard to one destination
// shard until the next window barrier. A boxed event's ref indexes the
// route's own tables, not the source shard's: the route has exactly one
// writer during a window (the source worker) and exactly one reader at
// the barrier (whoever merges into dst), so what an event parks moves
// src -> dst at the flush without any two goroutines sharing a free
// list. A func event's ref is its index + 1 in fns. A typed event's is
// the offset + 1 of its attachment in words: an attHeader, its high half
// zero until the merge has parked the entry, and then the set. An entry
// is written once per run of identical posts (attach) and parked once in
// the destination arena however many boxed records point at it (merge).
type outRoute struct {
	dst int32
	// box is the boxed records, n of them in append order, in pages of the
	// kernel's pool: put takes one when the last is full and merge gives
	// each back once copied out — to the heap it is filling, as a rule —
	// so between barriers a mailbox holds no page.
	box [][]Event
	n   int
	// pending is the number of events the boxed records stand for (a
	// fan record counts once per destination).
	pending int
	fns     []func()
	words   []uint64
	// parked and shared count the attachments boxed here, like the
	// queue's attParked and attShared.
	parked, shared uint64
}

// attach stores att for the record about to be boxed and returns the
// ref it is to carry. *memo is the poster's hint, as in queue.attach:
// the index + 1 of the boxed record that carried its last attachment.
// Whatever it holds, the hint is safe to follow: a record at that index
// of the box as it is now, typed and with a ref, names an entry of words
// as they are now, and the entry is shared only if it holds exactly att.
func (rt *outRoute) attach(memo *uint32, att Attachment) uint32 {
	if i := int(*memo) - 1; i >= 0 && i < rt.n {
		if b := rt.at(i); b.fan == 0 && b.Kind != KindFunc && b.ref != 0 && holds(rt.words[b.ref-1:], att) {
			rt.shared++
			return b.ref
		}
	}
	rt.parked++
	*memo = uint32(rt.n + 1)
	ref := uint32(len(rt.words) + 1)
	rt.words = append(append(rt.words, att.Seq, uint64(len(att.Words))), att.Words...)
	return ref
}

// at returns boxed record i.
func (rt *outRoute) at(i int) *Event { return &rt.box[i>>pageShift][i&pageMask] }

// put boxes ev, which stands for n events.
func (rt *outRoute) put(pool *pagePool, ev Event, n int) {
	if rt.n>>pageShift == len(rt.box) {
		rt.box = append(rt.box, pool.get())
	}
	*rt.at(rt.n) = ev
	rt.n++
	rt.pending += n
}

// pshard is one shard's private state: clock, queue, and outboxes.
// Unlike the serial Engine's global insertion seq, an event's (origin,
// counter) key is assigned by the origin cell's own shard, keeping key
// assignment race-free.
type pshard struct {
	now Time
	q   queue
	// routes holds this shard's cross-shard mailboxes, sorted by
	// destination shard and created lazily on first use. With
	// contiguous ID-range tiles a shard only ever talks to its few
	// partition neighbors (hexgrid.Partition.NeighborShards), so this
	// stays O(neighbor shards) — a dense [][]Event outbox would be
	// O(shards) per shard and dominate memory at the shard counts a
	// 10^6-cell grid wants. Only this shard's worker appends; only the
	// coordinator (between windows) drains.
	routes []outRoute
	// pad avoids false sharing between adjacent shards' hot fields
	// when workers advance them concurrently.
	_ [64]byte
}

// findRoute returns the mailbox for destination dst, or nil when the
// shard has never sent to dst. Read-only: safe for concurrent use from
// flush workers as long as no route is being created.
func (s *pshard) findRoute(dst int32) *outRoute {
	lo, hi := 0, len(s.routes)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.routes[mid].dst < dst {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.routes) && s.routes[lo].dst == dst {
		return &s.routes[lo]
	}
	return nil
}

// route returns the mailbox for destination dst, creating it in sorted
// position on first use.
func (s *pshard) route(dst int32) *outRoute {
	lo, hi := 0, len(s.routes)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.routes[mid].dst < dst {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.routes) && s.routes[lo].dst == dst {
		return &s.routes[lo]
	}
	s.routes = append(s.routes, outRoute{})
	copy(s.routes[lo+1:], s.routes[lo:])
	s.routes[lo] = outRoute{dst: dst}
	return &s.routes[lo]
}

// Shards is the sharded kernel. The zero value is not usable; call
// NewShards. Scheduling methods (At, Cross, After) must be called either
// before Run/Drain or from an event callback executing on the owning
// shard — they are not safe to call concurrently for the same origin.
type Shards struct {
	lookahead Time
	shards    []pshard
	pool      pagePool // every shard heap's and mailbox's event pages
	handlers  handlers
	// cnt[org] is the per-origin event counter. A cell's events are
	// scheduled only by its owning shard's worker (or pre-run), so
	// slots are never written concurrently.
	cnt []uint64
	// last[org] is where origin org's last attachments went, written
	// under the same rule as cnt.
	last    []attMemo
	barrier func()
	windows uint64
	// reservedBytes accumulates the capacity pinned by Reserve, checked
	// against reserveBudget so an absurd hint (from a miscomputed
	// workload estimate) fails fast with an error instead of silently
	// attempting a huge allocation.
	reservedBytes uint64
	reserveBudget uint64
	// inbound[dst] lists the source shards (ascending) that have
	// materialized a mailbox to dst; routeCount[src] is len(routes) at
	// the last inbound build. Together they let flush distribute the
	// barrier merge across workers by destination — each dst heap is
	// touched by exactly one goroutine, and pushing in ascending-src,
	// then append, order reproduces the serial merge's heap layout
	// byte-for-byte. Rebuilt lazily when any shard grows a new route.
	inbound    [][]int32
	routeCount []int
}

// attMemo is what the kernel remembers per origin so that a snapshot
// the origin sends again — a station answers every neighbour with the
// same Use_i until the set changes — is stored once: the arena ref of
// the last attachment it posted into a shard's own queue (queue.attach)
// and the box index + 1 of the record that carried the last one it
// posted across a boundary (outRoute.attach). Both are hints, checked
// against the bytes they point at, so neither records which queue or
// route it meant nor is ever invalidated — not by a delivery, a flush, a
// DiscardPending or a recycled slot.
type attMemo struct {
	slot, box uint32
}

// DefaultReserveBudget caps the cumulative event capacity (in bytes) a
// kernel's Reserve calls may pin unless overridden with
// SetReserveBudget. Generous enough for a 10^6-cell run (tens of
// millions of in-flight events), small enough to catch estimates that
// are off by orders of magnitude before they OOM the host.
const DefaultReserveBudget = 8 << 30

// NewShards builds a kernel with n shards, a lookahead window of T
// ticks (the minimum cross-shard scheduling delay), and numOrigins
// distinct origin ids (one per cell).
func NewShards(n int, lookahead Time, numOrigins int) *Shards {
	if n < 1 {
		panic(fmt.Sprintf("sim: NewShards with %d shards", n))
	}
	if lookahead < 1 {
		panic(fmt.Sprintf("sim: NewShards with lookahead %d < 1", lookahead))
	}
	if numOrigins < 1 {
		panic(fmt.Sprintf("sim: NewShards with %d origins", numOrigins))
	}
	if err := CheckOrigins(numOrigins); err != nil {
		panic(err.Error())
	}
	k := &Shards{
		lookahead:     lookahead,
		shards:        make([]pshard, n),
		cnt:           make([]uint64, numOrigins),
		last:          make([]attMemo, numOrigins),
		reserveBudget: DefaultReserveBudget,
	}
	for i := range k.shards {
		k.shards[i].q.pool = &k.pool
	}
	return k
}

// SetReserveBudget caps the cumulative bytes of event capacity that
// Reserve may pin; bytes <= 0 restores the default.
func (k *Shards) SetReserveBudget(bytes int64) {
	if bytes <= 0 {
		k.reserveBudget = DefaultReserveBudget
		return
	}
	k.reserveBudget = uint64(bytes)
}

// NumShards returns the shard count.
func (k *Shards) NumShards() int { return len(k.shards) }

// Lookahead returns the window width T.
func (k *Shards) Lookahead() Time { return k.lookahead }

// Now returns shard s's current virtual time. Within a window different
// shards' clocks may differ by up to T-1 ticks; at every barrier all
// clocks are inside the same window.
func (k *Shards) Now(s int) Time { return k.shards[s].now }

// Executed returns the total number of events executed across shards.
func (k *Shards) Executed() uint64 {
	var n uint64
	for i := range k.shards {
		n += k.shards[i].q.executed
	}
	return n
}

// Windows returns the number of lockstep windows advanced so far.
func (k *Shards) Windows() uint64 { return k.windows }

// Pending returns the total number of queued events, including
// unflushed mailbox entries.
func (k *Shards) Pending() int {
	n := 0
	for i := range k.shards {
		n += k.shards[i].q.pending
		for j := range k.shards[i].routes {
			n += k.shards[i].routes[j].pending
		}
	}
	return n
}

// Footprint reports what the shard queues and mailboxes hold and have
// held. Coordinator-context only (not during a window).
func (k *Shards) Footprint() Footprint {
	var f Footprint
	k.pool.addTo(&f)
	for i := range k.shards {
		sh := &k.shards[i]
		sh.q.addTo(&f)
		for j := range sh.routes {
			rt := &sh.routes[j]
			f.RouteBytes += uint64(len(rt.box))*pageSlots*EventSize + uint64(cap(rt.fns))*uint64(unsafe.Sizeof(rt.fns[0])) + uint64(cap(rt.words))*8
			f.Records += rt.n
			f.Events += rt.pending
			f.AttParked += rt.parked
			f.AttShared += rt.shared
		}
	}
	return f
}

// Routes returns the number of cross-shard mailboxes shard s has
// materialized — O(neighbor shards) for partition-derived workloads,
// never O(total shards). Exposed so tests and benches can assert the
// sparse-routing property.
func (k *Shards) Routes(s int) int { return len(k.shards[s].routes) }

// Reserve grows shard s's heap to hold at least n events, mirroring
// Engine.Reserve for the serial kernel: the pages come out of the pool
// now instead of one by one as the heap fills. Absurd hints — negative,
// or blowing the kernel's reserve budget — return a descriptive error
// and leave the heap untouched.
func (k *Shards) Reserve(s, n int) error {
	q := &k.shards[s].q
	if n < 0 {
		return fmt.Errorf("sim: heap reserve of %d events is negative", n)
	}
	if n <= q.capacity() {
		return nil
	}
	grow := uint64(n-q.capacity()) * EventSize
	if k.reservedBytes+grow > k.reserveBudget {
		return fmt.Errorf("sim: heap reserve of %d events (%d MiB) exceeds memory budget (%d MiB reserved of %d MiB); check the workload estimate or raise SetReserveBudget",
			n, grow>>20, k.reservedBytes>>20, k.reserveBudget>>20)
	}
	k.reservedBytes += grow
	q.reserve(n)
	return nil
}

// SetBarrier installs fn to run on the coordinator goroutine at every
// window barrier, after all shards have finished the window and before
// mailboxes are merged. All shard state is quiescent during the call —
// drivers use it for consistent-cut invariant checks.
func (k *Shards) SetBarrier(fn func()) { k.barrier = fn }

// Handle registers h as the interpreter of events of kind k, on every
// shard. h runs on shard workers, concurrently for different shards.
func (k *Shards) Handle(kind Kind, h Handler) { k.handlers.set(kind, h) }

// SetFanout installs the resolver of fan records; PostFan needs one. f
// is called from shard workers, concurrently for different shards.
func (k *Shards) SetFanout(f Fanout) { k.handlers.fan = f }

// keys draws the canonical tie-breaks of origin's next n events and
// returns the first.
func (k *Shards) keys(origin int32, n int) uint64 {
	return drawKeys(&k.cnt[origin], origin, n)
}

// checkPost panics on an event scheduled into shard s's past.
func (k *Shards) checkPost(s int, at Time, origin int32) {
	if now := k.shards[s].now; at < now {
		panic(fmt.Sprintf("sim: shard %d scheduling event at %d before now %d (origin cell %d)", s, at, now, origin))
	}
}

// checkCross panics on a cross-shard event that does not respect the
// lookahead, at >= src.now + T: it would let a shard see an event
// scheduled inside its current window, breaking the conservative
// synchronization argument.
func (k *Shards) checkCross(src, dst int, at Time) {
	if now := k.shards[src].now; at < now+k.lookahead {
		panic(fmt.Sprintf("sim: cross-shard event %d->%d at %d violates lookahead (now %d + T %d)", src, dst, at, now, k.lookahead))
	}
}

// post queues ev on shard s, parking side (if any) in the table of the
// shard's queue that ev's kind selects.
func (k *Shards) post(s int, at Time, origin int32, ev Event, side sideEntry) {
	k.checkPost(s, at, origin)
	sh := &k.shards[s]
	ev.At, ev.key, ev.ref = at, k.keys(origin, 1), 0
	if !side.empty() {
		if ev.Kind == KindFunc {
			ev.ref = sh.q.fns.park(side.fn)
		} else {
			ev.ref = sh.q.attach(&k.last[origin].slot, side.att)
		}
	}
	sh.q.post(ev, 1)
}

// cross boxes ev for shard dst, called from an event executing on shard
// src. The event must respect the lookahead (checkCross).
func (k *Shards) cross(src, dst int, at Time, origin int32, ev Event, side sideEntry) {
	if src == dst {
		k.post(src, at, origin, ev, side)
		return
	}
	k.checkCross(src, dst, at)
	ev.At, ev.key, ev.ref = at, k.keys(origin, 1), 0
	rt := k.shards[src].route(int32(dst))
	if !side.empty() {
		if ev.Kind == KindFunc {
			rt.fns = append(rt.fns, side.fn)
			ev.ref = uint32(len(rt.fns))
		} else {
			ev.ref = rt.attach(&k.last[origin].box, side.att)
		}
	}
	rt.put(&k.pool, ev, 1)
}

// Post schedules the typed event ev at absolute time at on shard s with
// the given origin cell (see Engine.Post). Scheduling in the past
// panics, as in the serial Engine.
func (k *Shards) Post(s int, at Time, origin int32, ev Event, att Attachment) {
	k.post(s, at, origin, ev, sideEntry{att: att})
}

// PostCross schedules the typed event ev at absolute time at on shard
// dst, called from an event executing on shard src; at must respect the
// lookahead (see Cross).
func (k *Shards) PostCross(src, dst int, at Time, origin int32, ev Event, att Attachment) {
	k.cross(src, dst, at, origin, ev, sideEntry{att: att})
}

// PostFan schedules ev at absolute time at on shard dst once for each
// cell of origin's neighbour list whose index i has bit i-64*word set
// in mask (see Engine.PostFan): the events, keys and order of one
// PostCross per set bit, queued — or boxed, when dst is not src — as a
// single record. Every such cell must belong to shard dst.
func (k *Shards) PostFan(src, dst int, at Time, origin int32, ev Event, word int, mask uint64) {
	n := bits.OnesCount64(mask)
	if n == 0 {
		return
	}
	if src == dst {
		k.checkPost(src, at, origin)
		k.shards[src].q.post(k.handlers.fanRecord(ev, at, k.keys(origin, n), word, mask), n)
		return
	}
	k.checkCross(src, dst, at)
	k.shards[src].route(int32(dst)).put(&k.pool, k.handlers.fanRecord(ev, at, k.keys(origin, n), word, mask), n)
}

// At schedules fn at absolute time at on shard s with the given origin
// cell. Scheduling in the past panics, as in the serial Engine.
func (k *Shards) At(s int, at Time, origin int32, fn func()) {
	k.post(s, at, origin, Event{}, sideEntry{fn: fn})
}

// After schedules fn delay ticks from shard s's current time.
func (k *Shards) After(s int, delay Time, origin int32, fn func()) {
	k.post(s, k.shards[s].now+delay, origin, Event{}, sideEntry{fn: fn})
}

// Cross schedules fn at absolute time at on shard dst, called from an
// event executing on shard src. The event must respect the lookahead:
// at >= src.now + T, or the call panics.
func (k *Shards) Cross(src, dst int, at Time, origin int32, fn func()) {
	k.cross(src, dst, at, origin, Event{}, sideEntry{fn: fn})
}

// runWindow executes shard s's events with at < horizon.
func (s *pshard) runWindow(h *handlers, horizon Time) {
	for s.q.n > 0 && s.q.top().At < horizon {
		ev := s.q.pop()
		s.now = ev.At
		s.q.exec(h, ev, math.MaxUint64)
	}
}

// merge moves every boxed event of rt into dst's queue, re-homing what
// the events parked from the route's tables to dst's: a func moves, an
// attachment entry is copied into dst's arena by the first record that
// refers to it, leaves the slot's ref in its header, and costs every
// later record a reference. Each page goes back to the pool once it has
// been copied out. Barrier-only: the caller owns both rt and dst.
func (rt *outRoute) merge(dst *queue) {
	for p, pg := range rt.box {
		for _, ev := range pg[:min(pageSlots, rt.n-p<<pageShift)] {
			if ev.fan == 0 && ev.ref != 0 {
				if ev.Kind == KindFunc {
					ev.ref = dst.fns.park(rt.fns[ev.ref-1])
				} else {
					e := rt.words[ev.ref-1:]
					if slot := uint32(e[1] >> 32); slot != 0 {
						dst.atts.retain(slot)
						ev.ref = slot
					} else {
						ev.ref = dst.atts.park(attOf(e))
						e[1] |= uint64(ev.ref) << 32
					}
				}
			}
			dst.push(ev)
		}
		dst.pool.put(pg)
	}
	dst.owe(rt.pending)
	rt.reset()
}

// reset empties the route, whose pages have gone back to the pool.
func (rt *outRoute) reset() {
	rt.box, rt.n, rt.pending = rt.box[:0], 0, 0
	clear(rt.fns)
	rt.fns = rt.fns[:0]
	rt.words = rt.words[:0]
}

// parallelFlushThreshold is the minimum number of boxed cross-shard
// events per barrier before flush fans the merge out to workers. Below
// it the goroutine handoff costs more than the pushes; counting is
// O(materialized routes), which sparse routing keeps tiny.
const parallelFlushThreshold = 4096

// flush merges every mailbox into its destination heap. Runs at the
// window barrier; the per-destination merge order (ascending src, then
// append order) is fixed regardless of the path taken, so heap layouts
// — and therefore trajectories — are identical at any worker count.
// Under borrow pressure at large shard counts the merge is a measurable
// slice of the barrier, so when enough events are boxed it runs
// destination-parallel: each dst heap is owned by exactly one worker.
func (k *Shards) flush(workers int) {
	total := 0
	for si := range k.shards {
		for ri := range k.shards[si].routes {
			total += k.shards[si].routes[ri].n
		}
	}
	if total == 0 {
		return
	}
	if workers <= 1 || len(k.shards) < 2 || total < parallelFlushThreshold {
		k.flushSerial()
		return
	}
	k.flushParallel(workers)
}

// flushSerial is the coordinator-only merge path.
func (k *Shards) flushSerial() {
	for si := range k.shards {
		src := &k.shards[si]
		for ri := range src.routes {
			rt := &src.routes[ri]
			if rt.n == 0 {
				continue
			}
			rt.merge(&k.shards[rt.dst].q)
		}
	}
}

// flushParallel distributes the merge by destination shard. Routes are
// created only by a cross-shard post, never during flush, so the
// inbound index is stable for the whole call and only needs rebuilding
// when some shard materialized a new route since the last build.
func (k *Shards) flushParallel(workers int) {
	if k.inbound == nil {
		k.inbound = make([][]int32, len(k.shards))
		k.routeCount = make([]int, len(k.shards))
	}
	stale := false
	for si := range k.shards {
		if len(k.shards[si].routes) != k.routeCount[si] {
			stale = true
			break
		}
	}
	if stale {
		for d := range k.inbound {
			k.inbound[d] = k.inbound[d][:0]
		}
		for si := range k.shards {
			k.routeCount[si] = len(k.shards[si].routes)
			for ri := range k.shards[si].routes {
				d := k.shards[si].routes[ri].dst
				k.inbound[d] = append(k.inbound[d], int32(si))
			}
		}
	}
	n := len(k.shards)
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for d := w; d < n; d += workers {
				srcs := k.inbound[d]
				if len(srcs) == 0 {
					continue
				}
				dst := &k.shards[d]
				for _, si := range srcs {
					rt := k.shards[si].findRoute(int32(d))
					if rt == nil || rt.n == 0 {
						continue
					}
					rt.merge(&dst.q)
				}
			}
		}(w)
	}
	wg.Wait()
}

// minDue returns the earliest queued event time across all shards, or
// (0, false) when every heap is empty. Mailboxes are flushed first by
// the caller, so heaps are authoritative.
func (k *Shards) minDue() (Time, bool) {
	lo, ok := Time(0), false
	for i := range k.shards {
		sh := &k.shards[i]
		if sh.q.n == 0 {
			continue
		}
		if at := sh.q.top().At; !ok || at < lo {
			lo, ok = at, true
		}
	}
	return lo, ok
}

// runWindowAll executes one window on all shards using the given worker
// count. Shard i is handled by worker i%workers — a static assignment,
// so which goroutine runs a shard never depends on timing. workers<=1
// runs inline with zero synchronization.
func (k *Shards) runWindowAll(workers int, horizon Time) {
	// The clamped count is a fresh variable: reassigning the parameter
	// would make the worker closure capture it by reference and
	// heap-allocate it on every call, the inline path included.
	n := len(k.shards)
	nw := min(workers, n)
	if nw <= 1 {
		for i := range k.shards {
			k.shards[i].runWindow(&k.handlers, horizon)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += nw {
				k.shards[i].runWindow(&k.handlers, horizon)
			}
		}(w)
	}
	wg.Wait()
}

// Run advances all shards in lockstep windows until every queued event
// later than until would remain, then sets all clocks to until (when
// behind). workers <= 0 means runtime.NumCPU(). It returns the number
// of events executed by this call.
func (k *Shards) Run(workers int, until Time) uint64 {
	return k.run(workers, until, math.MaxUint64)
}

// Drain runs windows until no events remain or maxEvents callbacks have
// run (checked at window granularity), whichever is first. It reports
// whether the queues emptied.
func (k *Shards) Drain(workers int, maxEvents uint64) bool {
	k.run(workers, math.MaxInt64, maxEvents)
	return k.Pending() == 0
}

func (k *Shards) run(workers int, until Time, maxEvents uint64) uint64 {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	start := k.Executed()
	for k.Executed()-start < maxEvents {
		k.flush(workers)
		wlow, ok := k.minDue()
		if !ok || wlow > until {
			break
		}
		// The window is [wlow, wlow+T); horizon is exclusive. Events at
		// exactly `until` must still run (Engine.Run semantics), hence
		// the +1 cap, overflow-guarded for until = MaxInt64.
		horizon := wlow + k.lookahead
		if horizon < wlow {
			horizon = math.MaxInt64
		}
		if until < math.MaxInt64 && horizon > until+1 {
			horizon = until + 1
		}
		k.runWindowAll(workers, horizon)
		k.windows++
		if k.barrier != nil {
			k.barrier()
		}
	}
	if until < math.MaxInt64 {
		for i := range k.shards {
			if k.shards[i].now < until {
				k.shards[i].now = until
			}
		}
	}
	return k.Executed() - start
}

// DrainUntil advances windows until every remaining event is later than
// cutoff, executing events exactly as Run(workers, cutoff) would —
// window boundaries and barrier calls before the cutoff are identical
// to a full Drain's, so pre-cutoff trajectories (and anything sampled
// at barriers) are unperturbed. Post-cutoff events stay queued in their
// heaps and mailboxes for DiscardPending. maxEvents is a runaway-loop
// backstop checked at window granularity; DrainUntil reports whether
// every event due at or before cutoff actually ran (false only when
// the backstop tripped mid-drain).
func (k *Shards) DrainUntil(workers int, cutoff Time, maxEvents uint64) bool {
	k.run(workers, cutoff, maxEvents)
	// At normal loop exit the mailboxes have all been flushed (flush
	// precedes the minDue break) and the earliest heap entry is past
	// cutoff. Only the maxEvents path can leave due work behind, so
	// verify directly: heap tops, plus unflushed boxes on that path.
	for i := range k.shards {
		sh := &k.shards[i]
		if sh.q.n > 0 && sh.q.top().At <= cutoff {
			return false
		}
		for j := range sh.routes {
			for rt, i := &sh.routes[j], 0; i < rt.n; i++ {
				if rt.at(i).At <= cutoff {
					return false
				}
			}
		}
	}
	return true
}

// DiscardPending drops every queued event — shard heaps and cross-shard
// mailboxes — without executing it and returns how many were dropped.
// Side entries are cleared so captured closures become collectable, and
// every event page but each heap's first goes back to the pool. Shard
// clocks are unchanged. Coordinator-context only (not during a window).
func (k *Shards) DiscardPending() int {
	n := 0
	for i := range k.shards {
		sh := &k.shards[i]
		n += sh.q.discard()
		for j := range sh.routes {
			r := &sh.routes[j]
			n += r.pending
			for _, pg := range r.box {
				k.pool.put(pg)
			}
			r.reset()
		}
	}
	return n
}
