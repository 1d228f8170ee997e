package traffic

import (
	"repro/internal/chanset"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/sim"
)

// Continuation ops (driver.Continuation.Op) of the requests the
// generator submits.
const (
	// contCall completes a new (or warm-start) call: Hold is its holding
	// time, Flag whether a denial counts towards Blocked.
	contCall uint8 = iota + 1
	// contHandoff completes a handoff request: the call still holds Ch
	// in cell Cell and has Hold ticks left.
	contHandoff
)

// tally is one shard's scalar counters, merged in shard order at the
// end: counters are written from shard workers, so the global Stats
// fields cannot be touched mid-run. Padded to keep adjacent shards off
// one cache line.
type tally struct {
	offered, blocked    uint64
	hoAttempts, hoDrops uint64
	_                   [32]byte
}

// generator is the workload as a driver.CallHandler: every step of a
// call's life is a typed kernel event (HandleEvent) or a typed request
// continuation (Complete) — no closure is built per call. All state a
// step touches is per cell and touched only from the cell's own shard,
// and posting and requesting follow the driver's context rule: from the
// cell's own shard, or pre-run.
type generator struct {
	h       *driver.Sim
	spec    Spec
	stats   Stats
	tallies []tally
	// arr[cell] is the cell's arrival/thinning/holding substream.
	arr []sim.Rand
	// mob[cell] is the cell's mobility substream (nil without mobility):
	// dwell and neighbor draws for a leg are taken from the stream of
	// the cell the leg runs in.
	mob []sim.Rand
}

func newGenerator(h *driver.Sim, spec Spec) *generator {
	n := h.Grid().NumCells()
	g := &generator{
		h:    h,
		spec: spec,
		stats: Stats{
			PerCellOffered: make([]uint64, n),
			PerCellBlocked: make([]uint64, n),
		},
		tallies: make([]tally, h.NumShards()),
		arr:     make([]sim.Rand, n),
	}
	for i := range g.arr {
		g.arr[i] = sim.SubstreamValue(spec.Seed, arrivalLabel+uint64(i))
	}
	if spec.HandoffRate > 0 {
		g.mob = make([]sim.Rand, n)
		for i := range g.mob {
			g.mob[i] = sim.SubstreamValue(spec.Seed, mobilityLabel+uint64(i))
		}
	}
	h.SetCallHandler(g)
	return g
}

// prime seeds shard si before any simulation time passes: warm-start
// occupancy (Spec.WarmStart) and every cell's first candidate arrival,
// in ascending cell order over its tile. A seeded request touches only
// what its shard owns — the book, the cell's counters, the shard's heap
// and outgoing mailboxes — as an event in a window does, so the shards
// are seeded at once on their workers (driver.Parallel.EachShard) with
// results bit-identical at any worker count.
func (g *generator) prime(si int) {
	t := g.h.Partition().Tile(si)
	for cell := t.Lo; cell < t.Hi; cell++ {
		if g.spec.WarmStart {
			g.warmStart(cell)
		}
		g.scheduleArrival(cell)
	}
}

// result merges the per-shard tallies, in shard order, into the stats.
func (g *generator) result() Stats {
	st := g.stats
	for i := range g.tallies {
		t := &g.tallies[i]
		st.Offered += t.offered
		st.Blocked += t.blocked
		st.HandoffAttempts += t.hoAttempts
		st.HandoffDrops += t.hoDrops
	}
	return st
}

// tally returns the counters of cell's shard. Only the owning shard's
// worker increments them, so no synchronization is needed.
func (g *generator) tally(cell hexgrid.CellID) *tally {
	return &g.tallies[g.h.ShardOf(cell)]
}

// HandleEvent implements sim.Handler for the call-lifecycle kinds.
func (g *generator) HandleEvent(ev sim.Event, _ sim.Attachment) {
	cell, ch := hexgrid.CellID(ev.Cell), chanset.Channel(ev.Ch)
	switch ev.Kind {
	case sim.KindArrival:
		// Thinning: accept the candidate with probability rate/maxRate.
		maxRate := g.spec.Profile.MaxRate(cell)
		if g.arr[cell].Float64()*maxRate <= g.spec.Profile.Rate(cell, g.h.Now(cell)) {
			g.newCall(cell)
		}
		g.scheduleArrival(cell)
	case sim.KindRelease:
		g.h.Release(cell, ch)
	case sim.KindDepart:
		g.depart(cell, ch, hexgrid.CellID(ev.Peer), sim.Time(ev.T))
	case sim.KindHandoff:
		g.h.RequestCont(cell, driver.Continuation{
			Op: contHandoff, Cell: hexgrid.CellID(ev.Peer), Ch: ch, Hold: sim.Time(ev.T),
		})
	}
}

// Complete implements driver.CallHandler: a request the generator
// submitted has resolved, in r.Cell's shard.
func (g *generator) Complete(r driver.Result, c driver.Continuation) {
	switch c.Op {
	case contCall:
		if !r.Granted {
			if c.Flag && g.spec.countsDenial(g.h.Now(r.Cell)) {
				g.tally(r.Cell).blocked++
				g.stats.PerCellBlocked[r.Cell]++
			}
			return
		}
		g.continueCall(r.Cell, r.Ch, c.Hold)
	case contHandoff:
		// Make-before-break: whatever the target decided, the old
		// channel is released back home one latency after the decision.
		g.h.PostRelay(r.Cell, c.Cell, sim.Event{Kind: sim.KindRelease, Cell: int32(c.Cell), Ch: int32(c.Ch)})
		if !r.Granted {
			if g.spec.countsHandoff(g.h.Now(r.Cell)) {
				g.tally(r.Cell).hoDrops++
			}
			return
		}
		g.continueCall(r.Cell, r.Ch, c.Hold)
	}
}

// warmStart submits cell's stationary in-progress calls before tick 0:
// K ~ Poisson(rate(cell, 0) × MeanHold), each with a residual
// Exp(MeanHold) hold. The draws come from the cell's arrival substream
// ahead of any arrival-gap draw, in the same order on the serial and
// sharded drivers. Pre-run requests run the allocator of the cell's own
// shard synchronously; requests a saturated neighborhood cannot grant
// immediately resolve through the borrow protocol during the run (its
// messages are latency-delayed cross events, always within the kernel's
// lookahead bound), in the kernel's canonical (time, origin, counter)
// order; denied seeds simply never existed. Neither outcome touches the
// Offered/Blocked tallies — seeded calls model traffic admitted before
// the run began.
func (g *generator) warmStart(cell hexgrid.CellID) {
	rng := &g.arr[cell]
	k := rng.Poisson(g.spec.Profile.Rate(cell, 0) * g.spec.MeanHold)
	for i := 0; i < k; i++ {
		g.h.RequestCont(cell, driver.Continuation{Op: contCall, Hold: rng.ExpTicks(g.spec.MeanHold)})
	}
}

// scheduleArrival plants the next candidate arrival for cell using
// thinning (non-homogeneous Poisson sampling).
func (g *generator) scheduleArrival(cell hexgrid.CellID) {
	maxRate := g.spec.Profile.MaxRate(cell)
	if maxRate <= 0 {
		return
	}
	at := g.h.Now(cell) + g.arr[cell].ExpTicks(1/maxRate)
	if at > g.spec.Duration {
		return // arrivals stop; this cell's stream ends
	}
	g.h.PostAt(cell, at, sim.Event{Kind: sim.KindArrival, Cell: int32(cell)})
}

// newCall submits a channel request; its continuation starts the call
// lifecycle (handoffs and final release) when granted. PerCell slots
// are only ever written by the owning shard, so they need no tally
// indirection.
func (g *generator) newCall(cell hexgrid.CellID) {
	measured := g.h.Now(cell) >= g.spec.Warmup
	if measured {
		g.tally(cell).offered++
		g.stats.PerCellOffered[cell]++
	}
	g.h.RequestCont(cell, driver.Continuation{
		Op: contCall, Flag: measured, Hold: g.arr[cell].ExpTicks(g.spec.MeanHold),
	})
}

// continueCall runs one leg of a call in one cell: either the call ends
// here (release) or it departs toward a neighbor first. Dwell time and
// the neighbor pick are drawn from the current cell's mobility
// substream at leg start, so every draw belongs to the cell the leg
// runs in — the property that lets the sharded kernel run the same
// schedule (each stream is consumed by exactly one shard; the grant
// continuation runs in the cell's shard).
func (g *generator) continueCall(cell hexgrid.CellID, ch chanset.Channel, remaining sim.Time) {
	if g.spec.HandoffRate > 0 {
		mob := &g.mob[cell]
		handoffIn := mob.ExpTicks(1 / g.spec.HandoffRate)
		if handoffIn < remaining {
			if adj := g.h.Grid().Adjacent(cell); len(adj) > 0 {
				next := adj[mob.Intn(len(adj))]
				g.h.PostAfter(cell, handoffIn, sim.Event{
					Kind: sim.KindDepart, Cell: int32(cell), Ch: int32(ch),
					Peer: int32(next), T: int64(remaining - handoffIn),
				})
				return
			}
		}
	}
	g.h.PostAfter(cell, remaining, sim.Event{Kind: sim.KindRelease, Cell: int32(cell), Ch: int32(ch)})
}

// depart executes a cell-boundary crossing: the handoff request reaches
// the target cell one message latency after the crossing (the signalling
// hop, a legal cross-shard event by the lookahead bound), and the old
// channel is released one latency after the target's decision (see
// Complete) — make-before-break with explicit signalling delay, the
// same schedule on one shard or many. The crossing is counted in the
// old cell's shard at crossing time, a drop in the target's at decision
// time, both by event time against the tally window, matching how
// Offered and Blocked treat warmup.
func (g *generator) depart(cell hexgrid.CellID, ch chanset.Channel, next hexgrid.CellID, left sim.Time) {
	if g.spec.countsHandoff(g.h.Now(cell)) {
		g.tally(cell).hoAttempts++
	}
	g.h.PostRelay(cell, next, sim.Event{
		Kind: sim.KindHandoff, Cell: int32(next), Ch: int32(ch), Peer: int32(cell), T: int64(left),
	})
}
