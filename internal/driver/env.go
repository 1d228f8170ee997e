package driver

import (
	"fmt"
	"math/bits"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/message"
	"repro/internal/obs"
	"repro/internal/reqbook"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// cellEnv is one cell's driver record: it holds the cell's allocator
// and implements alloc.Env for it, and with it the DES transport — a
// Send is a KindMessage event (transport.EventOf) one latency ahead in
// the destination's shard — and it holds the cell's completion tallies
// and its chain in the shard's request book, so that a grant touches one
// 64-byte record. Instances live in Parallel.envs, one slab for the
// whole grid, with the cell's RNG stream embedded by value.
type cellEnv struct {
	p    *Parallel
	a    alloc.Allocator
	rand sim.Rand
	// began is when the station began work on the oldest request
	// (Env.Began), 0 until it does.
	began sim.Time
	chain reqbook.Chain
	shard int32
	cell  hexgrid.CellID
	// grants and denies are the cell's completion tallies (uint32: 4
	// billion per cell is far beyond any run length).
	grants, denies uint32
}

func (e *cellEnv) ID() hexgrid.CellID          { return e.cell }
func (e *cellEnv) Neighbors() []hexgrid.CellID { return e.p.grid.Interference(e.cell) }
func (e *cellEnv) Now() sim.Time               { return e.p.kernel.Now(int(e.shard)) }
func (e *cellEnv) Latency() sim.Time           { return e.p.opts.Latency }
func (e *cellEnv) Rand() *sim.Rand             { return &e.rand }

// Send delivers m after the latency (plus jitter): with zero jitter,
// equal latency plus the kernel's stable tie-break gives per-link FIFO
// for free; with jitter, FIFO is enforced explicitly by never scheduling
// a delivery before the previous one on the same link. Deliveries carry
// the *sender* as the event origin: the canonical key is then assigned
// entirely within the sending shard, which is what makes cross-shard
// ordering deterministic. With Wire every message makes a round trip
// through the binary codec — catching serialization bugs against live
// protocol traffic and accounting wire bytes.
func (e *cellEnv) Send(m message.Message) {
	if e.p.teardown {
		return
	}
	m.From = e.cell
	p := e.p
	sh := &p.shards[e.shard]
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
	at := p.kernel.Now(int(e.shard)) + p.opts.Latency
	if p.opts.Jitter > 0 {
		at += sim.Time(p.jitters[e.cell&p.own].Intn(int(p.opts.Jitter) + 1))
		key := parLink{m.From, m.To}
		if last := sh.lastAt[key]; at < last {
			at = last // preserve FIFO on the link
		}
		sh.lastAt[key] = at
	}
	ev, att := transport.EventOf(m)
	p.kernel.PostCross(int(e.shard), p.part.ShardOf(m.To), at, int32(e.cell), ev, att)
}

// Multicast implements alloc.Multicaster. The destinations of one send
// that live in one shard are consecutive in send order — so they hold
// consecutive counters of the sender — and go out as one fan record per
// maximal such run (one per destination shard: neighbour lists are
// sorted and shards are contiguous id ranges, though the grouping does
// not rely on it). With jitter or the codec on, every destination has
// its own due time, RNG draw and round trip, and a message carrying an
// attachment parks one per destination: those go out by Send.
func (e *cellEnv) Multicast(m message.Message, mask []uint64) {
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
	at := p.kernel.Now(int(e.shard)) + p.opts.Latency
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
			p.kernel.PostFan(int(e.shard), dst, at, int32(e.cell), ev, w, run)
			word &^= run
		}
	}
	p.shards[e.shard].msgs.CountN(m, sent)
}

func (e *cellEnv) Began(id alloc.RequestID) {
	e.p.shards[e.shard].book.Check(&e.chain, e.cell, "start", id)
	e.began = e.p.kernel.Now(int(e.shard))
}

// conclude marks request id, the cell's oldest, concluded (what names
// the station's report), returning its record, its closure and its
// Result so far. Work on it began at Env.Began, or at its submission for
// a station that never said.
func (e *cellEnv) conclude(id alloc.RequestID, what string, granted bool, ch chanset.Channel) (reqbook.Rec, func(Result), Result) {
	q, fn := e.p.shards[e.shard].book.Conclude(&e.chain, e.cell, what, id)
	began := max(e.began, q.Submitted)
	e.began = 0
	return q, fn, Result{ID: id, Cell: e.cell, Granted: granted, Ch: ch, Submitted: q.Submitted, Began: began, Done: e.p.kernel.Now(int(e.shard))}
}

func (e *cellEnv) Moved(from, to chanset.Channel) {
	if h := e.p.held; h != nil {
		h.Drop(e.cell, from)
		e.hold(h, to)
	}
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

func (e *cellEnv) Granted(id alloc.RequestID, ch chanset.Channel) {
	p := e.p
	sh := &p.shards[e.shard]
	q, fn, res := e.conclude(id, "grant", true, ch)
	now, began := res.Done, res.Began
	sh.dog.Completed(now)
	sh.grants++
	e.grants++
	acc := &p.shared[e.cell&p.own]
	acc.acqDelay.Observe(float64(now - began))
	acc.totalDelay.Observe(float64(now - res.Submitted))
	acc.queueDelay.Observe(float64(began - res.Submitted))
	sh.delayHist.Observe(float64(now - began))
	if p.opts.Journal != nil {
		p.opts.Journal.Emit(int64(now), "result", int(e.cell),
			obs.FI("req", int64(id)), obs.FI("granted", 1),
			obs.FI("ch", int64(ch)), obs.FI("ticks", int64(now-began)))
	}
	sh.traceEvent(trace.Event{At: now, Kind: trace.EvGrant, Cell: e.cell, Ch: ch, Info: int64(id)})
	if h := p.held; h != nil {
		e.hold(h, ch)
	}
	e.complete(q, fn, res)
}

// hold records in the table of Options.Check that the cell gained ch,
// by a grant or a move, and checks the new holding: at once at one
// shard, at the window's barrier above it.
func (e *cellEnv) hold(h *trace.Holdings, ch chanset.Channel) {
	h.Hold(e.cell, ch)
	if e.p.checkGrant {
		if j, clash := h.Clash(e.cell, ch); clash {
			panic(trace.CoChannel(e.cell, j, chanset.SetOf(ch)))
		}
		return
	}
	sh := &e.p.shards[e.shard]
	sh.grew = append(sh.grew, e.cell)
}

func (e *cellEnv) Denied(id alloc.RequestID) {
	p := e.p
	sh := &p.shards[e.shard]
	q, fn, res := e.conclude(id, "denial", false, chanset.NoChannel)
	now := res.Done
	sh.dog.Completed(now)
	sh.denies++
	e.denies++
	if p.opts.Journal != nil {
		p.opts.Journal.Emit(int64(now), "result", int(e.cell),
			obs.FI("req", int64(id)), obs.FI("granted", 0),
			obs.FI("ticks", int64(now-res.Began)))
	}
	sh.traceEvent(trace.Event{At: now, Kind: trace.EvDeny, Cell: e.cell, Ch: chanset.NoChannel, Info: int64(id)})
	e.complete(q, fn, res)
}

// complete hands res to q's closure fn or typed continuation, if any,
// then lets the book hand the station the request behind q. After, not
// before, the callback: a station answering on the spot must not
// conclude the next request before q's completion has run.
func (e *cellEnv) complete(q reqbook.Rec, fn func(Result), res Result) {
	switch {
	case fn != nil:
		fn(res)
	case q.Op != 0:
		e.p.calls.Complete(res, Continuation{Op: q.Op, Flag: q.Flag, Cell: q.Peer, Ch: q.Ch, Hold: q.Hold})
	}
	e.p.shards[e.shard].book.Finish(&e.chain, e.a)
	e.p.agree(e.cell)
}

// SetCutoff tells the kernel that the run ends at cutoff (a truncated
// drain: DrainUntil, then ForceQuiesce), so that it queues nothing due
// later — it would be discarded unrun (sim.Shards.SetCutoff). Pre-run
// only.
func (p *Parallel) SetCutoff(cutoff sim.Time) { p.kernel.SetCutoff(cutoff) }

// ReserveShard pre-sizes shard s's event heap (an Erlang estimate from
// the workload). Absurd hints are rejected with a descriptive error (see
// sim.Shards.Reserve).
func (p *Parallel) ReserveShard(s, n int) error { return p.kernel.Reserve(s, n) }

// EachShard calls fn(s) for every shard s on the kernel's shard workers,
// each starting with the block of shards it runs windows for
// (sim.Shards.Each); fn may do for s's cells what an event of shard s
// may. Pre-run only.
func (p *Parallel) EachShard(fn func(shard int)) { p.kernel.Each(p.opts.Workers, fn) }

// Run advances virtual time to until, executing all due events (the
// shards in lockstep windows).
func (p *Parallel) Run(until sim.Time) {
	p.kernel.Run(p.opts.Workers, until)
	p.publish(true)
}

// Drain runs to quiescence with a backstop; it reports whether every
// queue emptied.
func (p *Parallel) Drain(maxEvents uint64) bool {
	drained := p.kernel.Drain(p.opts.Workers, maxEvents)
	p.publish(true)
	return drained
}

// DrainUntil executes every event at or before cutoff — window
// boundaries and barrier samples before the cutoff are exactly those of
// a full Drain — and parks every shard clock there, leaving later
// events queued for ForceQuiesce. It reports whether all due events ran
// (false only on the maxEvents backstop).
func (p *Parallel) DrainUntil(cutoff sim.Time, maxEvents uint64) bool {
	done := p.kernel.DrainUntil(p.opts.Workers, cutoff, maxEvents)
	p.publish(true)
	return done
}
