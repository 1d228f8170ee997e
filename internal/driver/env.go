package driver

import (
	"fmt"
	"math/bits"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/message"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// cellEnv implements alloc.Env for one cell, and with it the DES
// transport: a Send is a KindMessage event (transport.EventOf) one
// latency ahead in the destination's shard. Instances live in
// Parallel.envs, one slab for the whole grid, with the cell's RNG stream
// embedded by value (the jitter stream stays a pointer: it exists only
// for jittered scenarios, and under New every cell points at the same
// one).
type cellEnv struct {
	p      *Parallel
	shard  int
	cell   hexgrid.CellID
	rand   sim.Rand
	jitter *sim.Rand
}

func (e *cellEnv) ID() hexgrid.CellID          { return e.cell }
func (e *cellEnv) Neighbors() []hexgrid.CellID { return e.p.grid.Interference(e.cell) }
func (e *cellEnv) Now() sim.Time               { return e.p.now(e.shard) }
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
	at := p.now(e.shard) + p.opts.Latency
	if p.opts.Jitter > 0 {
		at += sim.Time(e.jitter.Intn(int(p.opts.Jitter) + 1))
		key := parLink{m.From, m.To}
		if last := sh.lastAt[key]; at < last {
			at = last // preserve FIFO on the link
		}
		sh.lastAt[key] = at
	}
	ev, att := transport.EventOf(m)
	p.post(e.shard, p.part.ShardOf(m.To), at, int32(e.cell), ev, att)
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
	at := p.now(e.shard) + p.opts.Latency
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
			p.postFan(e.shard, dst, at, int32(e.cell), ev, w, run)
			word &^= run
		}
	}
	p.obs.messages.Add(uint64(sent))
	p.shards[e.shard].msgs.CountN(m, sent)
}

func (e *cellEnv) Began(id alloc.RequestID) {
	sh := &e.p.shards[e.shard]
	if q, ok := sh.pending[id]; ok {
		q.began = e.p.now(e.shard)
	}
}

func (e *cellEnv) Moved(from, to chanset.Channel) {
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
	q, ok := sh.pending[id]
	if !ok {
		panic(fmt.Sprintf("driver: grant for unknown request %d at cell %d", id, e.cell))
	}
	delete(sh.pending, id)
	now := p.now(e.shard)
	sh.dog.Completed(now)
	sh.grants++
	p.cells[e.cell].grants++
	acc := &p.shared[e.cell&p.own]
	acc.acqDelay.Observe(float64(now - q.began))
	acc.totalDelay.Observe(float64(now - q.submitted))
	acc.queueDelay.Observe(float64(q.began - q.submitted))
	sh.delayHist.Observe(float64(now - q.began))
	p.obs.granted.Inc()
	p.obs.outstanding.Add(-1)
	p.obs.acquire.Observe(float64(now - q.began))
	if p.obs.journal != nil {
		p.obs.journal.Emit(int64(now), "result", int(e.cell),
			obs.FI("req", int64(id)), obs.FI("granted", 1),
			obs.FI("ch", int64(ch)), obs.FI("ticks", int64(now-q.began)))
	}
	sh.traceEvent(trace.Event{At: now, Kind: trace.EvGrant, Cell: e.cell, Ch: ch, Info: int64(id)})
	if p.checkGrant {
		if err := p.checker.CheckCell(e.cell); err != nil {
			panic(err)
		}
	}
	q.complete(p.calls, Result{
		ID: id, Cell: e.cell, Granted: true, Ch: ch,
		Submitted: q.submitted, Began: q.began, Done: now,
	})
	sh.recycle(q)
}

func (e *cellEnv) Denied(id alloc.RequestID) {
	p := e.p
	sh := &p.shards[e.shard]
	q, ok := sh.pending[id]
	if !ok {
		panic(fmt.Sprintf("driver: denial for unknown request %d at cell %d", id, e.cell))
	}
	delete(sh.pending, id)
	now := p.now(e.shard)
	sh.dog.Completed(now)
	sh.denies++
	p.cells[e.cell].denies++
	p.obs.denied.Inc()
	p.obs.outstanding.Add(-1)
	if p.obs.journal != nil {
		p.obs.journal.Emit(int64(now), "result", int(e.cell),
			obs.FI("req", int64(id)), obs.FI("granted", 0),
			obs.FI("ticks", int64(now-q.began)))
	}
	sh.traceEvent(trace.Event{At: now, Kind: trace.EvDeny, Cell: e.cell, Ch: chanset.NoChannel, Info: int64(id)})
	q.complete(p.calls, Result{
		ID: id, Cell: e.cell, Granted: false, Ch: chanset.NoChannel,
		Submitted: q.submitted, Began: q.began, Done: now,
	})
	sh.recycle(q)
}

// Kernel access. eventKernel is what sim.Engine and sim.Shards spell
// alike, none of it on an event's path; where the two differ — a shard
// argument, a worker count — the helpers below forward to whichever
// constructor's kernel is there. Nothing else in the package asks.
type eventKernel interface {
	Handle(sim.Kind, sim.Handler)
	SetFanout(sim.Fanout)
	Executed() uint64
	Pending() int
	Footprint() sim.Footprint
	DiscardPending() int
}

// now returns shard's clock.
func (p *Parallel) now(shard int) sim.Time {
	if p.engine != nil {
		return p.engine.Now()
	}
	return p.kernel.Now(shard)
}

// post schedules ev at time at in shard dst, from an event executing in
// shard src (or pre-run); at must respect the lookahead when they
// differ.
func (p *Parallel) post(src, dst int, at sim.Time, origin int32, ev sim.Event, att sim.Attachment) {
	if p.engine != nil {
		p.engine.Post(at, origin, ev, att)
		return
	}
	p.kernel.PostCross(src, dst, at, origin, ev, att)
}

// postFan is post for one fan record: the neighbours of origin that mask
// selects in the given word of its list, all in shard dst.
func (p *Parallel) postFan(src, dst int, at sim.Time, origin int32, ev sim.Event, word int, mask uint64) {
	if p.engine != nil {
		p.engine.PostFan(at, origin, ev, word, mask)
		return
	}
	p.kernel.PostFan(src, dst, at, origin, ev, word, mask)
}

// postFunc schedules fn at time at in shard.
func (p *Parallel) postFunc(shard int, at sim.Time, origin int32, fn func()) {
	if p.engine != nil {
		p.engine.AtOrigin(at, origin, fn)
		return
	}
	p.kernel.At(shard, at, origin, fn)
}

// ReserveShard pre-sizes shard s's event heap (an Erlang estimate from
// the workload). Absurd hints are rejected with a descriptive error (see
// sim.Shards.Reserve).
func (p *Parallel) ReserveShard(s, n int) error {
	if p.engine != nil {
		return p.engine.Reserve(n)
	}
	return p.kernel.Reserve(s, n)
}

// Run advances virtual time to until, executing all due events (the
// shards in lockstep windows).
func (p *Parallel) Run(until sim.Time) {
	if p.engine != nil {
		p.engine.Run(until)
	} else {
		p.kernel.Run(p.opts.Workers, until)
	}
	p.obs.footprint(p.k)
}

// Drain runs to quiescence with a backstop; it reports whether every
// queue emptied.
func (p *Parallel) Drain(maxEvents uint64) (drained bool) {
	if p.engine != nil {
		drained = p.engine.Drain(maxEvents)
	} else {
		drained = p.kernel.Drain(p.opts.Workers, maxEvents)
	}
	p.obs.footprint(p.k)
	return drained
}

// DrainUntil executes every event at or before cutoff — window
// boundaries and barrier samples before the cutoff are exactly those of
// a full Drain — and parks every shard clock there, leaving later
// events queued for ForceQuiesce. It reports whether all due events ran
// (false only on the maxEvents backstop).
func (p *Parallel) DrainUntil(cutoff sim.Time, maxEvents uint64) (done bool) {
	if p.engine != nil {
		done = p.engine.DrainUntil(cutoff, maxEvents)
	} else {
		done = p.kernel.DrainUntil(p.opts.Workers, cutoff, maxEvents)
	}
	p.obs.footprint(p.k)
	return done
}
