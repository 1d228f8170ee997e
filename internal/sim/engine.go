// Package sim is a deterministic discrete-event simulation kernel: a
// virtual clock, one queue of flat typed event records in paged storage
// — a 4-ary heap for what is due soon and a log sorted in batches for
// what is due later — with stable FIFO ordering of simultaneous events
// and one record per multi-destination send (queue.go, far.go), under
// one conservative event loop (Shards, parallel.go) that advances any
// number of shards in lockstep windows one lookahead wide, on a crew of
// workers that lives as long as the run, each keeping its home block of
// shards (crew.go), and seeded random-number streams. A serial run is
// its one-shard case; Engine is the one-shard kernel's serial view.
//
// All protocol benchmarks run on this kernel so results are exactly
// reproducible from a seed; the live goroutine runtime in
// internal/transport exists to exercise the same station code under real
// concurrency.
package sim

import "math"

// Time is virtual time in abstract ticks. The paper's unit is T, the
// one-way message latency; drivers conventionally use 1 tick = 1
// microsecond-ish granularity and express T in ticks.
type Time int64

// Engine is the serial view of a one-shard kernel: Shards' methods
// without the shard argument, run on the caller's goroutine, one event
// at a time, which is what makes runs deterministic. Not safe for
// concurrent use.
//
// Origin-attributed events (AtOrigin/AfterOrigin/Post) carry the cell
// that scheduled them plus a per-origin counter — the canonical key at
// any shard count. Unattributed events (At/After) use origin -1 and the
// kernel's insertion seq as counter: stable FIFO among themselves, and
// before any attributed event at the same tick.
type Engine Shards

// NewEngine returns a serial engine at time 0 with an empty queue: a
// one-shard kernel whose one window reaches as far as a run does, with
// the near horizon of a kernel that knows no latency (nearSpan).
func NewEngine() *Engine {
	k := NewShards(1, math.MaxInt64, 1)
	k.shards[0].q.near = nearSpan
	return k.Engine()
}

// k is the kernel e views.
func (e *Engine) k() *Shards { return (*Shards)(e) }

// SetCutoff declares that no event due after cutoff will run
// (Shards.SetCutoff).
func (e *Engine) SetCutoff(cutoff Time) { e.k().SetCutoff(cutoff) }

// Handle registers h as the interpreter of events of kind k.
func (e *Engine) Handle(k Kind, h Handler) { e.k().Handle(k, h) }

// SetFanout installs the resolver of fan records; PostFan needs one.
func (e *Engine) SetFanout(f Fanout) { e.k().SetFanout(f) }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.shards[0].now }

// Executed returns the number of events executed so far (useful for
// progress watchdogs).
func (e *Engine) Executed() uint64 { return e.k().Executed() }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.k().Pending() }

// Footprint reports what the queue holds and has held.
func (e *Engine) Footprint() Footprint { return e.k().Footprint() }

// Reserve readies the queue to hold at least n events without
// allocating (Shards.Reserve).
func (e *Engine) Reserve(n int) error { return e.k().Reserve(0, n) }

// SetReserveBudget caps the event capacity (in bytes) Reserve may pin;
// bytes <= 0 restores the default.
func (e *Engine) SetReserveBudget(bytes int64) { e.k().SetReserveBudget(bytes) }

// Post schedules the typed event ev at the absolute time at with an
// explicit origin cell (Shards.Post).
func (e *Engine) Post(at Time, origin int32, ev Event, att Attachment) {
	e.k().Post(0, at, origin, ev, att)
}

// PostFan schedules ev at the absolute time at once for each neighbour
// of origin that mask selects in the given word (Shards.PostFan).
func (e *Engine) PostFan(at Time, origin int32, ev Event, word int, mask uint64) {
	e.k().PostFan(0, 0, at, origin, ev, word, mask)
}

// At schedules fn, unattributed, at the absolute virtual time at.
// Scheduling in the past panics: that is always a protocol-logic bug
// worth failing loudly on.
func (e *Engine) At(at Time, fn func()) { e.k().At(0, at, -1, fn) }

// After schedules fn, unattributed, delay ticks from now. Negative
// delays panic; zero-delay events run after already-queued events at the
// current time.
func (e *Engine) After(delay Time, fn func()) { e.k().After(0, delay, -1, fn) }

// AtOrigin schedules fn at the absolute time at with an explicit origin
// cell (see Post for the key).
func (e *Engine) AtOrigin(at Time, origin int32, fn func()) { e.k().At(0, at, origin, fn) }

// AfterOrigin schedules fn delay ticks from now with an explicit origin
// cell.
func (e *Engine) AfterOrigin(delay Time, origin int32, fn func()) { e.k().After(0, delay, origin, fn) }

// Stop makes Run return after the current event completes. The drains
// run through a Stop.
func (e *Engine) Stop() { e.shards[0].q.stop = true }

// Run executes events in order until the queue is empty, Stop is called,
// or the next event is later than until (which then becomes the current
// time). It returns the number of events executed by this call.
func (e *Engine) Run(until Time) uint64 { return e.k().Run(1, until) }

// Step executes exactly one event if any is queued; it reports whether an
// event ran. Useful for fine-grained tests.
func (e *Engine) Step() bool { return e.k().Step() }

// Drain runs until the queue is empty or maxEvents events have run,
// whichever is first. It reports whether the queue emptied.
func (e *Engine) Drain(maxEvents uint64) bool { return e.k().Drain(1, maxEvents) }

// DrainUntil executes every event at or before cutoff, at most maxEvents
// of them, and reports whether every such event ran (Shards.DrainUntil).
func (e *Engine) DrainUntil(cutoff Time, maxEvents uint64) bool {
	return e.k().DrainUntil(1, cutoff, maxEvents)
}

// DiscardPending drops every queued event without executing it and
// returns how many were dropped. The clock is unchanged.
func (e *Engine) DiscardPending() int { return e.k().DiscardPending() }
