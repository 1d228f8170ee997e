// Package sim is a deterministic discrete-event simulation kernel: a
// virtual clock, one 4-ary-heap queue of flat typed event records in
// paged storage, with stable FIFO ordering of simultaneous events and
// one record per multi-destination send (queue.go), under a serial
// (Engine) and a sharded (Shards) event loop, and seeded random-number
// streams.
//
// All protocol benchmarks run on this kernel so results are exactly
// reproducible from a seed; the live goroutine runtime in
// internal/transport exists to exercise the same station code under real
// concurrency.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
)

// Time is virtual time in abstract ticks. The paper's unit is T, the
// one-way message latency; drivers conventionally use 1 tick = 1
// microsecond-ish granularity and express T in ticks.
type Time int64

// Engine is the serial event loop. Not safe for concurrent use: all
// events run on the caller's goroutine, one at a time, which is what
// makes runs deterministic.
//
// Origin-attributed events (AtOrigin/AfterOrigin/Post) carry the cell
// that scheduled them plus a per-origin counter — the same canonical key
// the sharded kernel (Shards) orders by, which is what lets a serial run
// reproduce a sharded run bit-for-bit. Unattributed events (At/After)
// use origin -1 and the global insertion seq as counter, preserving
// their historical stable-FIFO order among themselves and sorting
// before any attributed event at the same tick.
type Engine struct {
	now      Time
	seq      uint64
	q        queue
	pool     pagePool // the queue's; a serial kernel shares it with no one
	handlers handlers
	// cnt[org] is the per-origin event counter for origin-attributed
	// events, mirroring Shards.cnt; grown geometrically on demand.
	cnt []uint64
	// last[org] is the ref of the attachment origin org posted last, the
	// hint that lets a repeated snapshot share its slot (queue.attach);
	// anon is the same for unattributed events. Mirrors Shards.last and
	// grows on demand like cnt.
	last []uint32
	anon uint32
	// reserveBudget caps the heap capacity Reserve may pin (bytes);
	// zero means DefaultReserveBudget.
	reserveBudget uint64
}

// NewEngine returns an engine at time 0 with an empty queue.
func NewEngine() *Engine {
	e := &Engine{}
	e.q.pool = &e.pool
	return e
}

// Handle registers h as the interpreter of events of kind k.
func (e *Engine) Handle(k Kind, h Handler) { e.handlers.set(k, h) }

// SetFanout installs the resolver of fan records; PostFan needs one.
func (e *Engine) SetFanout(f Fanout) { e.handlers.fan = f }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events executed so far (useful for
// progress watchdogs).
func (e *Engine) Executed() uint64 { return e.q.executed }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.q.pending }

// Footprint reports what the queue holds and has held.
func (e *Engine) Footprint() Footprint {
	var f Footprint
	e.pool.addTo(&f)
	e.q.addTo(&f)
	return f
}

// Reserve grows the queue's capacity to hold at least n events without
// reallocating. Drivers that can estimate the number of concurrently
// scheduled events (e.g. expected in-flight calls plus one arrival per
// cell) should call it once up front to avoid growth copies mid-run.
// Absurd hints — negative, or exceeding the engine's reserve budget —
// return a descriptive error and leave the queue untouched.
func (e *Engine) Reserve(n int) error {
	if n < 0 {
		return fmt.Errorf("sim: heap reserve of %d events is negative", n)
	}
	if n <= e.q.capacity() {
		return nil
	}
	budget := e.reserveBudget
	if budget == 0 {
		budget = DefaultReserveBudget
	}
	if bytes := uint64(n) * EventSize; bytes > budget {
		return fmt.Errorf("sim: heap reserve of %d events (%d MiB) exceeds memory budget (%d MiB); check the workload estimate or raise SetReserveBudget",
			n, bytes>>20, budget>>20)
	}
	e.q.reserve(n)
	return nil
}

// SetReserveBudget caps the heap capacity (in bytes) Reserve may pin;
// bytes <= 0 restores the default.
func (e *Engine) SetReserveBudget(bytes int64) {
	if bytes <= 0 {
		e.reserveBudget = 0
		return
	}
	e.reserveBudget = uint64(bytes)
}

// keys draws the canonical tie-breaks of n consecutive events of origin
// and returns the first: the per-origin counter, or the global insertion
// seq for unattributed events (-1).
func (e *Engine) keys(origin int32, n int) uint64 {
	if origin < 0 {
		return drawKeys(&e.seq, origin, n)
	}
	if n := int(origin) + 1; n > len(e.cnt) {
		e.cnt = slices.Grow(e.cnt, n-len(e.cnt))[:n]
	}
	return drawKeys(&e.cnt[origin], origin, n)
}

// Post schedules the typed event ev at the absolute time at with an
// explicit origin cell, assigning the same canonical (at, origin,
// per-origin counter) key the sharded kernel uses (Shards.Post). A
// handler for ev.Kind must be registered before the event is due. att is
// the zero Attachment for all but a few events; its Words are copied
// before Post returns.
func (e *Engine) Post(at Time, origin int32, ev Event, att Attachment) {
	if at < e.now {
		e.panicPast(at, "")
	}
	ev.At, ev.key, ev.ref = at, e.keys(origin, 1), 0
	if !att.Empty() {
		ev.ref = e.q.attach(e.memo(origin), att)
	}
	e.q.post(ev, 1)
}

// memo returns origin's attachment hint.
func (e *Engine) memo(origin int32) *uint32 {
	if origin < 0 {
		return &e.anon
	}
	if n := int(origin) + 1; n > len(e.last) {
		e.last = slices.Grow(e.last, n-len(e.last))[:n]
	}
	return &e.last[origin]
}

// PostFan schedules ev at the absolute time at once for each cell of
// origin's neighbour list (as the Fanout set with SetFanout resolves
// it) whose index i has bit i-64*word set in mask, with ev.Cell that
// cell: exactly the events, keys and order of one Post per set bit in
// ascending index order, queued as a single record.
func (e *Engine) PostFan(at Time, origin int32, ev Event, word int, mask uint64) {
	if at < e.now {
		e.panicPast(at, "")
	}
	if n := bits.OnesCount64(mask); n > 0 {
		e.q.post(e.handlers.fanRecord(ev, at, e.keys(origin, n), word, mask), n)
	}
}

// postFunc queues fn as a KindFunc event.
func (e *Engine) postFunc(at Time, origin int32, fn func()) {
	e.q.post(Event{At: at, key: e.keys(origin, 1), ref: e.q.fns.park(fn)}, 1)
}

// At schedules fn at the absolute virtual time at. Scheduling in the past
// panics: that is always a protocol-logic bug worth failing loudly on.
func (e *Engine) At(at Time, fn func()) {
	if at < e.now {
		e.panicPast(at, "")
	}
	e.postFunc(at, -1, fn)
}

// AtOrigin schedules fn at the absolute time at with an explicit origin
// cell (see Post for the key). Drivers that want serial and sharded runs
// to produce bit-identical trajectories must schedule every event
// through the origin-attributed API with the origins the sharded path
// would use.
func (e *Engine) AtOrigin(at Time, origin int32, fn func()) {
	if at < e.now {
		e.panicPast(at, "")
	}
	e.postFunc(at, origin, fn)
}

// AfterOrigin schedules fn delay ticks from now with an explicit origin
// cell (see AtOrigin).
func (e *Engine) AfterOrigin(delay Time, origin int32, fn func()) {
	at := e.now + delay
	if at < e.now {
		e.panicPast(at, "")
	}
	e.postFunc(at, origin, fn)
}

// AtLabeled is At with a diagnostic label that is included in the
// past-scheduling panic message. The label is ignored on the success
// path, so labeling a hot call site costs nothing (no allocation, one
// extra comparison only when the panic fires).
func (e *Engine) AtLabeled(at Time, label string, fn func()) {
	if at < e.now {
		e.panicPast(at, label)
	}
	e.postFunc(at, -1, fn)
}

// After schedules fn delay ticks from now. Negative delays panic;
// zero-delay events run after already-queued events at the current time.
func (e *Engine) After(delay Time, fn func()) {
	at := e.now + delay
	if at < e.now {
		e.panicPast(at, "")
	}
	e.postFunc(at, -1, fn)
}

// panicPast reports a past-scheduling bug including the event's origin:
// the label (if any) and the caller site of the scheduling call. The
// caller lookup runs only on this failure path, keeping scheduling
// allocation-free.
func (e *Engine) panicPast(at Time, label string) {
	origin := "unknown origin"
	// Skip panicPast and the exported scheduling method: frame 2 is the
	// call site that scheduled the event.
	if _, file, line, ok := runtime.Caller(2); ok {
		origin = fmt.Sprintf("%s:%d", file, line)
	}
	if label != "" {
		origin = label + " @ " + origin
	}
	panic(fmt.Sprintf("sim: scheduling event at %d before now %d (origin %s)", at, e.now, origin))
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.q.stop = true }

// run executes events in order while one is due at or before until, at
// most budget of them, and reports whether it ran out of due events
// rather than budget. Stop ends it only when stoppable: the drains run
// through a Stop, as they always have.
func (e *Engine) run(until Time, budget uint64, stoppable bool) bool {
	e.q.stop = false
	for e.q.n > 0 && e.q.top().At <= until {
		if budget == 0 {
			return false
		}
		ev := e.q.pop()
		e.now = ev.At
		budget -= e.q.exec(&e.handlers, ev, budget)
		if e.q.stop {
			if stoppable {
				break
			}
			e.q.stop = false
		}
	}
	return true
}

// Run executes events in order until the queue is empty, Stop is called,
// or the next event is later than until (which then becomes the current
// time). It returns the number of events executed by this call.
func (e *Engine) Run(until Time) uint64 {
	start := e.q.executed
	e.run(until, math.MaxUint64, true)
	if e.now < until {
		e.now = until
	}
	return e.q.executed - start
}

// Step executes exactly one event if any is queued; it reports whether an
// event ran. Useful for fine-grained tests.
func (e *Engine) Step() bool {
	if e.q.n == 0 {
		return false
	}
	ev := e.q.pop()
	e.now = ev.At
	e.q.exec(&e.handlers, ev, 1)
	return true
}

// Drain runs until the queue is empty or maxEvents events have run,
// whichever is first. It reports whether the queue emptied. Use it in
// tests to reach quiescence with a runaway-loop backstop.
func (e *Engine) Drain(maxEvents uint64) bool {
	e.run(math.MaxInt64, maxEvents, false)
	return e.q.n == 0
}

// DrainUntil executes every event at or before cutoff, leaving later
// events queued with the heap untouched, so the caller can decide to
// discard them (truncate-at-horizon drain) or keep running. The clock
// ends at cutoff when behind. maxEvents is a runaway-loop backstop
// checked per event; DrainUntil reports whether every event due at or
// before cutoff actually ran (false only when the backstop tripped).
func (e *Engine) DrainUntil(cutoff Time, maxEvents uint64) bool {
	if !e.run(cutoff, maxEvents, false) {
		return false
	}
	if e.now < cutoff {
		e.now = cutoff
	}
	return true
}

// DiscardPending drops every queued event without executing it and
// returns how many were dropped. Side-table entries are cleared so
// captured closures become collectable. The clock is unchanged.
func (e *Engine) DiscardPending() int { return e.q.discard() }
