// Package psearch implements the distributed dynamic allocation scheme
// of Prakash, Shivaratri & Singhal (PODC'95), which the paper's
// Section 6 compares the adaptive scheme against ("advanced search
// scheme ... which uses the concept of the Allocated channels").
//
// Every cell owns a persistent *allocated* set that it grows on demand:
// once a channel is allocated to a cell it stays allocated (exclusively
// within the interference region) until a neighbor *transfers* it away.
// Requests served from the allocated set cost nothing — the scheme's
// selling point at transient high loads. When the allocated set is
// exhausted the cell searches: it collects every neighbor's (allocated,
// busy) sets with timestamped deferral (as in basic search) and then
// either claims an unallocated channel or asks the idle owner of one to
// TRANSFER it (owner answers AGREE or KEEP; the requester confirms with
// an acquisition or gives the channel back) — the extra message rounds
// the paper's Section 6 points out.
//
// Message mapping onto the shared wire format:
//
//	TRANSFER(r)  -> Request{Req: ReqTransfer, Ch: r}
//	AGREE/KEEP   -> Response{Res: ResAgree / ResKeep}
//	confirm      -> Acquisition{Ch: r} (keep) / Release{Ch: r} (return)
package psearch

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/lamport"
	"repro/internal/message"
)

// Factory builds allocated-search allocators.
type Factory struct {
	assign *chanset.Assignment
}

// NewFactory returns a Factory over the spectrum plan. Primary channel
// assignments are ignored: allocated sets start empty and grow on
// demand (the pure-dynamic variant of the scheme).
func NewFactory(assign *chanset.Assignment) *Factory {
	return &Factory{assign: assign}
}

// Name implements alloc.Factory.
func (f *Factory) Name() string { return "allocated-search" }

// New implements alloc.Factory.
func (f *Factory) New(cell hexgrid.CellID) alloc.Allocator {
	return &PSearch{cell: cell, spectrum: f.assign.Spectrum, nchan: f.assign.NumChannels}
}

type phase int

const (
	phaseIdle phase = iota
	phaseSearch
	phaseTransfer
)

type deferred struct {
	ts   lamport.Stamp
	from hexgrid.CellID
}

// PSearch is one cell's allocated-search allocator.
type PSearch struct {
	cell      hexgrid.CellID
	env       alloc.Env
	spectrum  chanset.Set
	nchan     int
	neighbors []hexgrid.CellID
	clock     *lamport.Clock
	serial    alloc.Serial
	counters  alloc.Counters

	// allocated ⊇ busy: channels this cell owns / is using.
	allocated chanset.Set
	busy      chanset.Set
	// transferPending[r] holds the requester we AGREEd to give r to;
	// until its confirm arrives, r is reported as still allocated so no
	// third party can claim it.
	transferPending map[chanset.Channel]hexgrid.CellID

	// Active request state.
	ph        phase
	reqID     alloc.RequestID
	reqTS     lamport.Stamp
	awaiting  map[hexgrid.CellID]bool
	allocBy   map[hexgrid.CellID]chanset.Set // neighbors' allocated sets
	busyAll   chanset.Set                    // union of neighbors' busy sets
	target    chanset.Channel                // channel being transferred
	targetOwn hexgrid.CellID
	tried     chanset.Set // transfer targets already refused
	deferQ    []deferred
}

// Start implements alloc.Allocator.
func (p *PSearch) Start(env alloc.Env) {
	p.env = env
	p.neighbors = env.Neighbors()
	p.clock = lamport.NewClock(int32(p.cell))
	p.allocated = chanset.NewSet(p.nchan)
	p.busy = chanset.NewSet(p.nchan)
	p.transferPending = make(map[chanset.Channel]hexgrid.CellID)
	p.serial.SetStart(p.begin)
}

// Allocated exposes the allocated set (tests, introspection).
func (p *PSearch) Allocated() chanset.Set { return p.allocated.Clone() }

func (p *PSearch) begin(id alloc.RequestID) {
	p.env.Began(id)
	p.reqID = id
	// Free allocated channel? Serve locally at zero cost.
	free := chanset.Subtract(p.allocated, p.busy)
	for ch := free.First(); ch.Valid(); ch = free.First() {
		if _, pending := p.transferPending[ch]; !pending {
			p.busy.Add(ch)
			p.counters.GrantsLocal++
			p.env.Granted(id, ch)
			p.serial.Finish()
			return
		}
		free.Remove(ch)
	}
	// Search the region.
	p.ph = phaseSearch
	p.reqTS = p.clock.Tick()
	p.allocBy = make(map[hexgrid.CellID]chanset.Set, len(p.neighbors))
	p.busyAll = chanset.NewSet(p.nchan)
	p.tried = chanset.NewSet(p.nchan)
	p.awaiting = make(map[hexgrid.CellID]bool, len(p.neighbors))
	for _, j := range p.neighbors {
		p.awaiting[j] = true
	}
	alloc.Broadcast(p.env, message.Message{
		Kind: message.Request, Req: message.ReqSearch,
		From: p.cell, Ch: chanset.NoChannel, TS: p.reqTS,
	})
	if len(p.awaiting) == 0 {
		p.decide()
	}
}

// decide runs when all search responses arrived: claim an unallocated
// channel, or start transfer rounds, or give up.
func (p *PSearch) decide() {
	unallocated := p.spectrum.Clone()
	unallocated.SubtractWith(p.allocated)
	for _, s := range p.allocBy {
		unallocated.SubtractWith(s)
	}
	if ch := unallocated.First(); ch.Valid() {
		p.allocated.Add(ch)
		p.busy.Add(ch)
		p.counters.GrantsSearch++
		p.finish(true, ch)
		return
	}
	p.tryTransfer()
}

// tryTransfer picks an idle channel allocated to exactly one neighbor
// and asks that owner to give it up.
func (p *PSearch) tryTransfer() {
	ownerOf := make(map[chanset.Channel]hexgrid.CellID)
	count := make(map[chanset.Channel]int)
	for j, s := range p.allocBy {
		for ch := s.First(); ch.Valid(); ch = s.Next(ch) {
			ownerOf[ch] = j
			count[ch]++
		}
	}
	best := chanset.NoChannel
	for ch := chanset.Channel(0); int(ch) < p.nchan; ch++ {
		if count[ch] != 1 || p.busyAll.Contains(ch) || p.tried.Contains(ch) {
			continue // busy, contested between owners, or already refused
		}
		if p.allocated.Contains(ch) {
			continue
		}
		best = ch
		break
	}
	if !best.Valid() {
		p.counters.Drops++
		p.finish(false, chanset.NoChannel)
		return
	}
	p.ph = phaseTransfer
	p.target = best
	p.targetOwn = ownerOf[best]
	p.counters.UpdateAttempts++ // transfer rounds are the scheme's "m"
	p.env.Send(message.Message{
		Kind: message.Request, Req: message.ReqTransfer,
		From: p.cell, To: p.targetOwn, Ch: best, TS: p.reqTS,
	})
}

// finish completes the request, draining deferred searches with the
// post-decision state.
func (p *PSearch) finish(granted bool, ch chanset.Channel) {
	id := p.reqID
	p.ph = phaseIdle
	q := p.deferQ
	p.deferQ = nil
	for _, d := range q {
		p.respondSearch(d.from, d.ts)
	}
	if granted {
		p.env.Granted(id, ch)
	} else {
		p.env.Denied(id)
	}
	p.serial.Finish()
}

// visibleAllocated is the allocated set as reported to others: channels
// mid-transfer still count as ours until the confirm arrives.
func (p *PSearch) visibleAllocated() chanset.Set {
	s := p.allocated.Clone()
	for ch := range p.transferPending {
		s.Add(ch)
	}
	return s
}

func (p *PSearch) respondSearch(to hexgrid.CellID, ts lamport.Stamp) {
	// Pack both sets into one response: Use carries the allocated set;
	// a second status response carries the busy set.
	p.env.Send(message.Message{
		Kind: message.Response, Res: message.ResSearch,
		From: p.cell, To: to, TS: ts, Use: p.visibleAllocated(),
	})
	p.env.Send(message.Message{
		Kind: message.Response, Res: message.ResStatus,
		From: p.cell, To: to, TS: ts, Use: p.busy.Clone(),
	})
}

// Request implements alloc.Allocator.
func (p *PSearch) Request(id alloc.RequestID) { p.serial.Submit(id) }

// Release implements alloc.Allocator. The channel stays allocated — that
// is the scheme's retention policy.
func (p *PSearch) Release(ch chanset.Channel) error {
	if !p.busy.Contains(ch) {
		p.counters.BadReleases++
		return fmt.Errorf("psearch: cell %d releasing unheld channel %d", p.cell, ch)
	}
	p.busy.Remove(ch)
	return nil
}

// Handle implements alloc.Allocator.
func (p *PSearch) Handle(m message.Message) {
	p.clock.Witness(m.TS)
	switch m.Kind {
	case message.Request:
		if m.Req == message.ReqTransfer {
			p.onTransferRequest(m)
			return
		}
		// Search request: defer while our own older request runs
		// (search and transfer rounds are one critical section).
		if p.ph != phaseIdle && p.reqTS.Less(m.TS) {
			p.deferQ = append(p.deferQ, deferred{ts: m.TS, from: m.From})
			return
		}
		p.respondSearch(m.From, m.TS)
	case message.Response:
		p.onResponse(m)
	case message.Acquisition:
		// Transfer confirm: the requester kept channel m.Ch.
		if to, ok := p.transferPending[m.Ch]; ok && to == m.From {
			delete(p.transferPending, m.Ch)
		}
	case message.Release:
		// Transfer abort: restore ownership.
		if to, ok := p.transferPending[m.Ch]; ok && to == m.From {
			delete(p.transferPending, m.Ch)
			p.allocated.Add(m.Ch)
		}
	default:
		panic(fmt.Sprintf("psearch: unexpected message %v", m))
	}
}

// onTransferRequest is the owner side of TRANSFER(r).
func (p *PSearch) onTransferRequest(m message.Message) {
	ch := m.Ch
	_, pending := p.transferPending[ch]
	if !p.allocated.Contains(ch) || p.busy.Contains(ch) || pending ||
		(p.ph != phaseIdle && p.reqTS.Less(m.TS)) {
		// Gone, in use, promised to someone else, or we are mid-request
		// ourselves with priority: KEEP.
		p.env.Send(message.Message{
			Kind: message.Response, Res: message.ResKeep,
			From: p.cell, To: m.From, Ch: ch, TS: m.TS,
		})
		return
	}
	p.allocated.Remove(ch)
	p.transferPending[ch] = m.From
	p.env.Send(message.Message{
		Kind: message.Response, Res: message.ResAgree,
		From: p.cell, To: m.From, Ch: ch, TS: m.TS,
	})
}

func (p *PSearch) onResponse(m message.Message) {
	switch m.Res {
	case message.ResSearch:
		if p.ph != phaseSearch || !m.TS.Equal(p.reqTS) || !p.awaiting[m.From] {
			return
		}
		// Kept until decide(): m.Use dies with this call.
		p.allocBy[m.From] = m.Use.Clone()
	case message.ResStatus:
		if p.ph != phaseSearch || !m.TS.Equal(p.reqTS) {
			return
		}
		p.busyAll.UnionWith(m.Use)
		if p.awaiting[m.From] {
			delete(p.awaiting, m.From) // status is the second half
			if len(p.awaiting) == 0 {
				p.decide()
			}
		}
	case message.ResAgree:
		if p.ph != phaseTransfer || !m.TS.Equal(p.reqTS) || m.Ch != p.target {
			// Stale agreement: give the channel straight back.
			p.env.Send(message.Message{
				Kind: message.Release, From: p.cell, To: m.From, Ch: m.Ch,
			})
			return
		}
		p.allocated.Add(m.Ch)
		p.busy.Add(m.Ch)
		p.counters.GrantsUpdate++ // transfer-path grants
		// Confirm so the old owner clears its pending state.
		p.env.Send(message.Message{
			Kind: message.Acquisition, Acq: message.AcqNonSearch,
			From: p.cell, To: m.From, Ch: m.Ch,
		})
		p.finish(true, m.Ch)
	case message.ResKeep:
		if p.ph != phaseTransfer || !m.TS.Equal(p.reqTS) || m.Ch != p.target {
			return
		}
		p.tried.Add(m.Ch)
		p.tryTransfer() // next candidate or give up
	}
}

// InUse implements alloc.Allocator (busy channels only — allocated-but-
// idle channels do not radiate).
func (p *PSearch) InUse() chanset.Set { return p.busy }

// Mode implements alloc.Allocator.
func (p *PSearch) Mode() int { return 0 }

// ProtocolCounters implements alloc.CounterProvider.
func (p *PSearch) ProtocolCounters() alloc.Counters { return p.counters }
