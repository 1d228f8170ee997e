// Package update implements the basic update scheme of Dong & Lai
// (ICDCS'97), the paper's second comparison baseline. Every station
// tracks its interference region's channel usage through ACQUISITION and
// RELEASE broadcasts. To acquire, it optimistically picks a channel that
// is free in its local view and asks the whole region for permission
// (2N messages per attempt, plus the 2N acquisition/release broadcasts).
// Same-channel conflicts resolve by timestamp: the older request wins,
// the younger aborts and retries with another channel — under load this
// retry loop is unbounded in the original scheme (Table 3's ∞ rows);
// MaxRounds caps it here (DESIGN.md D4).
package update

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/lamport"
	"repro/internal/message"
)

// DefaultMaxRounds is the default retry cap (the paper's basic update
// has none; see DESIGN.md D4).
const DefaultMaxRounds = 16

// Factory builds basic-update allocators.
type Factory struct {
	assign    *chanset.Assignment
	maxRounds int
}

// NewFactory returns a Factory. maxRounds <= 0 selects DefaultMaxRounds.
func NewFactory(assign *chanset.Assignment, maxRounds int) *Factory {
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	return &Factory{assign: assign, maxRounds: maxRounds}
}

// Name implements alloc.Factory.
func (f *Factory) Name() string { return "basic-update" }

// New implements alloc.Factory.
func (f *Factory) New(cell hexgrid.CellID) alloc.Allocator {
	return &Update{cell: cell, factory: f}
}

// Update is one cell's basic-update allocator.
type Update struct {
	cell      hexgrid.CellID
	factory   *Factory
	env       alloc.Env
	neighbors []hexgrid.CellID
	clock     *lamport.Clock
	use       chanset.Set
	u         map[hexgrid.CellID]chanset.Set
	iCnt      []int16
	inter     chanset.Set
	counters  alloc.Counters

	// Active request state.
	active   bool
	reqID    alloc.RequestID
	reqTS    lamport.Stamp
	reqCh    chanset.Channel
	rounds   int
	avoid    chanset.Set // channels rejected during this request
	awaiting map[hexgrid.CellID]bool
	rejected bool
}

// Start implements alloc.Allocator.
func (u *Update) Start(env alloc.Env) {
	u.env = env
	u.neighbors = env.Neighbors()
	u.clock = lamport.NewClock(int32(u.cell))
	n := u.factory.assign.NumChannels
	u.use = chanset.NewSet(n)
	u.u = make(map[hexgrid.CellID]chanset.Set, len(u.neighbors))
	for _, j := range u.neighbors {
		u.u[j] = chanset.NewSet(n)
	}
	u.iCnt = make([]int16, n)
	u.inter = chanset.NewSet(n)
}

func (u *Update) addU(j hexgrid.CellID, ch chanset.Channel) {
	if !ch.Valid() {
		return
	}
	uj, ok := u.u[j]
	if !ok || uj.Contains(ch) {
		return
	}
	uj.Add(ch)
	u.iCnt[ch]++
	u.inter.Add(ch)
}

func (u *Update) removeU(j hexgrid.CellID, ch chanset.Channel) {
	uj, ok := u.u[j]
	if !ok || !uj.Contains(ch) {
		return
	}
	uj.Remove(ch)
	u.iCnt[ch]--
	if u.iCnt[ch] <= 0 {
		u.iCnt[ch] = 0
		u.inter.Remove(ch)
	}
}

// Request implements alloc.Allocator.
func (u *Update) Request(id alloc.RequestID) {
	u.env.Began(id)
	u.reqID = id
	u.rounds = 0
	u.avoid = chanset.NewSet(u.factory.assign.NumChannels)
	u.attempt()
}

// attempt starts one permission round (or gives up).
func (u *Update) attempt() {
	free := u.factory.assign.Spectrum.Clone()
	free.SubtractWith(u.use)
	free.SubtractWith(u.inter)
	free.SubtractWith(u.avoid)
	ch := free.First()
	if !ch.Valid() || u.rounds >= u.factory.maxRounds {
		u.finish(false, chanset.NoChannel)
		return
	}
	u.rounds++
	u.counters.UpdateAttempts++
	u.active = true
	u.rejected = false
	u.reqCh = ch
	u.reqTS = u.clock.Tick()
	u.awaiting = make(map[hexgrid.CellID]bool, len(u.neighbors))
	for _, j := range u.neighbors {
		u.awaiting[j] = true
	}
	alloc.Broadcast(u.env, message.Message{
		Kind: message.Request, Req: message.ReqUpdate,
		From: u.cell, Ch: ch, TS: u.reqTS,
	})
	if len(u.awaiting) == 0 {
		u.resolve()
	}
}

// resolve runs when all permission responses arrived.
func (u *Update) resolve() {
	u.active = false
	if u.rejected {
		// Retry with another channel; remember the contested one.
		u.avoid.Add(u.reqCh)
		u.attempt()
		return
	}
	u.finish(true, u.reqCh)
}

func (u *Update) finish(granted bool, ch chanset.Channel) {
	id := u.reqID
	u.active = false
	if granted {
		u.use.Add(ch)
		u.counters.GrantsUpdate++
		// Inform the whole region so local views stay current.
		alloc.Broadcast(u.env, message.Message{
			Kind: message.Acquisition, Acq: message.AcqNonSearch,
			From: u.cell, Ch: ch,
		})
		u.env.Granted(id, ch)
	} else {
		u.counters.Drops++
		u.env.Denied(id)
	}
}

// Release implements alloc.Allocator.
func (u *Update) Release(ch chanset.Channel) error {
	if !u.use.Contains(ch) {
		u.counters.BadReleases++
		return fmt.Errorf("update: cell %d releasing unheld channel %d", u.cell, ch)
	}
	u.use.Remove(ch)
	alloc.Broadcast(u.env, message.Message{Kind: message.Release, From: u.cell, Ch: ch})
	return nil
}

// Handle implements alloc.Allocator.
func (u *Update) Handle(m message.Message) {
	u.clock.Witness(m.TS)
	switch m.Kind {
	case message.Request:
		u.onRequest(m)
	case message.Response:
		u.onResponse(m)
	case message.Acquisition:
		u.addU(m.From, m.Ch)
	case message.Release:
		u.removeU(m.From, m.Ch)
	default:
		panic(fmt.Sprintf("update: unexpected message %v", m))
	}
}

func (u *Update) onRequest(m message.Message) {
	switch {
	case u.use.Contains(m.Ch):
		u.send(m.From, message.ResReject, m)
	case u.active && u.reqCh == m.Ch && u.reqTS.Less(m.TS):
		// Same-channel conflict, our request is older: reject.
		u.send(m.From, message.ResReject, m)
	case u.active && u.reqCh == m.Ch:
		// Theirs is older: grant and abort our own attempt (it will
		// retry with a different channel once all responses arrive).
		u.rejected = true
		u.send(m.From, message.ResGrant, m)
	default:
		u.send(m.From, message.ResGrant, m)
	}
}

func (u *Update) send(to hexgrid.CellID, res message.ResType, m message.Message) {
	u.env.Send(message.Message{
		Kind: message.Response, Res: res,
		From: u.cell, To: to, Ch: m.Ch, TS: m.TS,
	})
}

func (u *Update) onResponse(m message.Message) {
	if !u.active || !m.TS.Equal(u.reqTS) || !u.awaiting[m.From] {
		return // stale response from an aborted attempt
	}
	delete(u.awaiting, m.From)
	if m.Res == message.ResReject {
		u.rejected = true
	}
	if len(u.awaiting) == 0 {
		u.resolve()
	}
}

// InUse implements alloc.Allocator.
func (u *Update) InUse() chanset.Set { return u.use }

// Mode implements alloc.Allocator.
func (u *Update) Mode() int { return 0 }

// ProtocolCounters implements alloc.CounterProvider.
func (u *Update) ProtocolCounters() alloc.Counters { return u.counters }
