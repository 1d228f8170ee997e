// Package alloc defines the service-provider interface every channel
// allocation scheme implements, plus small helpers shared by all
// schemes. Schemes are event-driven: the runtime (the deterministic DES
// driver or the live goroutine runtime) calls Request / Release / Handle,
// and the scheme answers through the Env callbacks. A scheme instance is
// owned by exactly one cell and is never called concurrently.
package alloc

import (
	"math/bits"

	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/message"
	"repro/internal/sim"
)

// RequestID correlates a channel request with its eventual grant/denial.
type RequestID int64

// Env is everything a station may ask of its runtime. Implementations
// guarantee that all callbacks into the same station are serialized.
type Env interface {
	// ID is the cell this allocator serves.
	ID() hexgrid.CellID
	// Neighbors is the interference neighborhood IN_i (sorted,
	// excluding the cell itself). The slice must not be modified.
	Neighbors() []hexgrid.CellID
	// Now is the current virtual time.
	Now() sim.Time
	// Latency is the paper's T: the maximum one-way message delay to a
	// neighbor in the interference region.
	Latency() sim.Time
	// Send transmits m to m.To. Delivery is asynchronous, reliable and
	// FIFO per (sender, receiver) pair.
	//
	// m.Use may be a view of the sender's live state: it is valid only
	// for the duration of the call, and a runtime that delivers later
	// takes its one copy before Send returns (the DES kernels copy the
	// words into a recycled side-table buffer, the live runtimes clone).
	// Symmetrically, the Use of a message passed to Allocator.Handle is
	// valid only until Handle returns; a scheme that keeps it clones it.
	//
	// An Env may also offer Multicaster, one call for a send to many
	// neighbors; schemes use it through Broadcast and Multicast.
	Send(m message.Message)
	// Began reports that request id left the station queue and protocol
	// work started (separates queueing delay from acquisition delay).
	Began(id RequestID)
	// Granted reports that request id acquired channel ch.
	Granted(id RequestID, ch chanset.Channel)
	// Denied reports that request id failed (the call is dropped).
	Denied(id RequestID)
	// Moved reports that the call currently on channel `from` was
	// switched to channel `to` by the allocator (channel repacking:
	// an intra-cell handoff). The runtime must redirect the call's
	// eventual release from `from` to `to`. Only the repacking-enabled
	// adaptive scheme emits this.
	Moved(from, to chanset.Channel)
	// Rand is this cell's private random stream.
	Rand() *sim.Rand
}

// Allocator is one cell's channel-allocation engine.
type Allocator interface {
	// Start binds the allocator to its runtime. Called exactly once,
	// before any other method.
	Start(env Env)
	// Request asks for one channel for request id. The allocator
	// answers with env.Granted or env.Denied, now or later. Its host
	// hands it one request at a time (internal/reqbook): the next only
	// after the answer for id and that answer's completion, so a station
	// serves one request at a time (DESIGN.md D3) with no queue of its
	// own, and a cell's requests complete in submission order.
	Request(id RequestID)
	// Release returns channel ch (previously granted) to the system.
	// Releasing a channel the cell does not hold returns an error and
	// leaves the allocator state untouched; deterministic sim drivers
	// may treat that as fatal (it indicates a driver bug), but live
	// runtimes must count it and carry on — a misbehaving caller must
	// not take down the whole signaling plane.
	Release(ch chanset.Channel) error
	// Handle processes a message addressed to this cell.
	Handle(m message.Message)
	// InUse returns the channels the cell is currently using, as a
	// read-only view of the allocator's own set: valid until the
	// allocator's next Request/Release/Handle, never to be mutated, and
	// to be Cloned by a caller that keeps it longer or hands it to
	// another goroutine. (The interference checker reads 19 of these per
	// grant; a copy each was most of a light run's allocations.)
	InUse() chanset.Set
	// Mode returns the paper's mode variable (0..3) for adaptive
	// allocators; fixed-mode schemes return a constant. Used for
	// mode-occupancy metrics only.
	Mode() int
}

// Counters is the per-station protocol accounting every scheme keeps.
// Experiments use the sums across cells to estimate the paper's ξ1, ξ2,
// ξ3 (acquisition-path fractions) and m (mean update attempts).
type Counters struct {
	// GrantsLocal counts acquisitions satisfied from the cell's own
	// primary channels with no permission round (the ξ1 path).
	GrantsLocal uint64
	// GrantsUpdate counts acquisitions via an update-style permission
	// round (the ξ2 path).
	GrantsUpdate uint64
	// GrantsSearch counts acquisitions via a search round (the ξ3 path).
	GrantsSearch uint64
	// Drops counts denied requests.
	Drops uint64
	// UpdateAttempts counts update-style permission rounds, successful
	// or not (m = UpdateAttempts / (GrantsUpdate + GrantsSearch + ...)).
	UpdateAttempts uint64
	// ModeChanges counts local<->borrowing transitions (flap metric;
	// zero for the non-adaptive schemes).
	ModeChanges uint64
	// BadReleases counts Release calls for channels the cell did not
	// hold (rejected with an error, state untouched).
	BadReleases uint64
	// Deferred counts incoming requests parked in DeferQ (timestamp
	// races lost by the requester; zero for the non-adaptive schemes).
	Deferred uint64
	// BadMessages counts received messages dropped as malformed: a
	// sender outside the interference region, a channel outside the
	// spectrum, a Use set wider than it (adaptive scheme only).
	BadMessages uint64
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.GrantsLocal += o.GrantsLocal
	c.GrantsUpdate += o.GrantsUpdate
	c.GrantsSearch += o.GrantsSearch
	c.Drops += o.Drops
	c.UpdateAttempts += o.UpdateAttempts
	c.ModeChanges += o.ModeChanges
	c.BadReleases += o.BadReleases
	c.Deferred += o.Deferred
	c.BadMessages += o.BadMessages
}

// Grants returns the total successful acquisitions.
func (c Counters) Grants() uint64 {
	return c.GrantsLocal + c.GrantsUpdate + c.GrantsSearch
}

// CounterProvider is implemented by allocators that expose protocol
// counters (all schemes in this repository do).
type CounterProvider interface {
	ProtocolCounters() Counters
}

// Tally is what the metrics render of a set of stations: their Counters
// summed, plus the counts a scheme derives from its stations' state
// instead of storing them (Tallier); zero for a scheme without one.
type Tally struct {
	Counters
	// Rejected counts update rounds that ended rejected; Searches counts
	// search rounds started.
	Rejected, Searches uint64
	// ToBorrowing and ToLocal split ModeChanges by direction.
	ToBorrowing, ToLocal uint64
	// DeferDepth is the number of requests standing in DeferQs.
	DeferDepth uint64
}

// Add accumulates o into t.
func (t *Tally) Add(o Tally) {
	t.Counters.Add(o.Counters)
	t.Rejected += o.Rejected
	t.Searches += o.Searches
	t.ToBorrowing += o.ToBorrowing
	t.ToLocal += o.ToLocal
	t.DeferDepth += o.DeferDepth
}

// Tallier is implemented by allocators whose Tally holds more than their
// Counters (core.Adaptive).
type Tallier interface {
	Tally() Tally
}

// TallyOf returns a's Tally: its Tallier's, else its Counters, else zero.
func TallyOf(a Allocator) Tally {
	switch s := a.(type) {
	case Tallier:
		return s.Tally()
	case CounterProvider:
		return Tally{Counters: s.ProtocolCounters()}
	}
	return Tally{}
}

// Factory builds one Allocator per cell; it carries the scheme-global
// configuration (grid, primary assignment, tuning parameters).
type Factory interface {
	// Name identifies the scheme in reports ("adaptive", "fixed", ...).
	Name() string
	// New creates the allocator for the given cell.
	New(cell hexgrid.CellID) Allocator
}

// Multicaster is an optional capability of an Env (discovered by type
// assertion, so an Env need not have it): a runtime that can carry one
// message to many neighbors more cheaply than as separate Sends — the
// DES drivers queue one event record per destination shard instead of
// one per destination — implements it; the live and TCP runtimes do
// not, and callers reach either through Broadcast and Multicast below.
type Multicaster interface {
	// Multicast sends m, with To stamped, to every neighbor whose index
	// i in Neighbors() has bit i%64 of mask[i/64] set — to all of them
	// when mask is nil — exactly as that many Sends in ascending index
	// order would: the same deliveries in the same order, the same
	// message counts, the same treatment of m.Use as a view, and nothing
	// at all where Send would have sent nothing.
	Multicast(m message.Message, mask []uint64)
}

// Broadcast sends a copy of m to every interference neighbor, stamping
// To.
func Broadcast(env Env, m message.Message) { Multicast(env, m, nil) }

// Multicast sends a copy of m to the neighbors mask selects (see
// Multicaster; nil selects all), in neighbor order: through the Env's
// Multicaster capability when it has one, by Send otherwise.
func Multicast(env Env, m message.Message, mask []uint64) {
	if mc, ok := env.(Multicaster); ok {
		mc.Multicast(m, mask)
		return
	}
	SendEach(env, m, mask)
}

// SendEach is Multicast by one Send per neighbor: what an Env without
// the capability gets, and what one with it falls back to for a message
// it has to treat per destination.
func SendEach(env Env, m message.Message, mask []uint64) {
	neighbors := env.Neighbors()
	if mask == nil {
		for _, to := range neighbors {
			m.To = to
			env.Send(m)
		}
		return
	}
	for wi, word := range mask {
		for ; word != 0; word &= word - 1 {
			m.To = neighbors[wi*64+bits.TrailingZeros64(word)]
			env.Send(m)
		}
	}
}
