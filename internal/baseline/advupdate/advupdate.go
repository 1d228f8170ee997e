// Package advupdate implements the advanced update scheme of Dong & Lai
// (OSU-CISRC-10/96-TR48), the paper's third comparison baseline and the
// target of its Section 6 fairness critique.
//
// Channels have static primary owners. A cell first serves requests from
// its own primaries (zero messages beyond the ACQUISITION/RELEASE
// broadcasts that keep neighborhood views current — the 2N term of
// Table 1). To borrow channel r it asks only NP(c, r): the primary
// owners of r inside its interference region (n_p cells). An owner
// grants r to the first borrower and answers concurrent borrowers with a
// conditional grant; a borrower acquires only on a full set of pure
// grants. First-come-first-served granting is exactly what produces the
// paper's Figure 11 unfairness: an older request can lose to a younger
// one whose messages arrive first.
//
// Safety requires the classic cluster property: two interfering
// borrowers of r always share a primary owner of r. That holds on
// lattice-colored grids (chanset's 3/7/13/19 clusters) away from
// unwrapped boundaries; use wrapped grids with this scheme.
package advupdate

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/lamport"
	"repro/internal/message"
)

// DefaultMaxRounds caps borrow retries (the original scheme retries
// indefinitely; Table 3's ∞ row).
const DefaultMaxRounds = 16

// Factory builds advanced-update allocators.
type Factory struct {
	grid      *hexgrid.Grid
	assign    *chanset.Assignment
	maxRounds int
}

// NewFactory returns a Factory. maxRounds <= 0 selects DefaultMaxRounds.
func NewFactory(grid *hexgrid.Grid, assign *chanset.Assignment, maxRounds int) *Factory {
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	return &Factory{grid: grid, assign: assign, maxRounds: maxRounds}
}

// Name implements alloc.Factory.
func (f *Factory) Name() string { return "advanced-update" }

// New implements alloc.Factory.
func (f *Factory) New(cell hexgrid.CellID) alloc.Allocator {
	return &AdvUpdate{cell: cell, factory: f}
}

// AdvUpdate is one cell's advanced-update allocator.
type AdvUpdate struct {
	cell      hexgrid.CellID
	factory   *Factory
	env       alloc.Env
	neighbors []hexgrid.CellID
	clock     *lamport.Clock
	pr        chanset.Set
	use       chanset.Set
	u         map[hexgrid.CellID]chanset.Set
	iCnt      []int16
	inter     chanset.Set
	// owners[r] lists the primary owners of r within the closed
	// interference neighborhood (NP(c, r)); borrowable is the set of
	// channels with at least one owner besides ourselves.
	owners     map[chanset.Channel][]hexgrid.CellID
	borrowable chanset.Set
	// grantedTo[r] is the borrower currently holding our pure grant of
	// primary channel r (None when free). It resolves on ACQUISITION or
	// RELEASE from that borrower.
	grantedTo map[chanset.Channel]hexgrid.CellID
	serial    alloc.Serial
	counters  alloc.Counters

	// Active borrow state.
	active   bool
	reqID    alloc.RequestID
	reqTS    lamport.Stamp
	reqCh    chanset.Channel
	rounds   int
	avoid    chanset.Set
	awaiting map[hexgrid.CellID]bool
	granters []hexgrid.CellID
	failed   bool
}

// Start implements alloc.Allocator.
func (v *AdvUpdate) Start(env alloc.Env) {
	v.env = env
	v.neighbors = env.Neighbors()
	v.clock = lamport.NewClock(int32(v.cell))
	v.pr = v.factory.assign.Primary[v.cell]
	n := v.factory.assign.NumChannels
	v.use = chanset.NewSet(n)
	v.u = make(map[hexgrid.CellID]chanset.Set, len(v.neighbors))
	for _, j := range v.neighbors {
		v.u[j] = chanset.NewSet(n)
	}
	v.iCnt = make([]int16, n)
	v.inter = chanset.NewSet(n)
	v.grantedTo = make(map[chanset.Channel]hexgrid.CellID)
	v.owners = v.factory.assign.PrimaryOwnersWithin(v.factory.grid, v.cell)
	v.borrowable = chanset.NewSet(n)
	for ch, cells := range v.owners {
		for _, c := range cells {
			if c != v.cell {
				v.borrowable.Add(ch)
				break
			}
		}
	}
	v.serial.SetStart(v.begin)
}

func (v *AdvUpdate) addU(j hexgrid.CellID, ch chanset.Channel) {
	if !ch.Valid() {
		return
	}
	uj, ok := v.u[j]
	if !ok || uj.Contains(ch) {
		return
	}
	uj.Add(ch)
	v.iCnt[ch]++
	v.inter.Add(ch)
}

func (v *AdvUpdate) removeU(j hexgrid.CellID, ch chanset.Channel) {
	uj, ok := v.u[j]
	if !ok || !uj.Contains(ch) {
		return
	}
	uj.Remove(ch)
	v.iCnt[ch]--
	if v.iCnt[ch] <= 0 {
		v.iCnt[ch] = 0
		v.inter.Remove(ch)
	}
}

// outGranted reports whether we have a live pure grant of ch out to a
// borrower (we must not use ch locally meanwhile).
func (v *AdvUpdate) outGranted(ch chanset.Channel) bool {
	b, ok := v.grantedTo[ch]
	return ok && b != hexgrid.None
}

func (v *AdvUpdate) begin(id alloc.RequestID) {
	v.env.Began(id)
	v.reqID = id
	v.rounds = 0
	v.avoid = chanset.NewSet(v.factory.assign.NumChannels)
	v.attempt()
}

func (v *AdvUpdate) attempt() {
	// Local-first: a free primary we have not granted away.
	freePrim := chanset.Subtract(v.pr, v.use)
	freePrim.SubtractWith(v.inter)
	for ch := freePrim.First(); ch.Valid(); ch = freePrim.First() {
		if !v.outGranted(ch) {
			v.finish(true, ch, true)
			return
		}
		freePrim.Remove(ch)
	}
	// Borrow: channels free in our view, owned by someone in range.
	cand := chanset.Intersect(v.borrowable, v.factory.assign.Spectrum)
	cand.SubtractWith(v.use)
	cand.SubtractWith(v.inter)
	cand.SubtractWith(v.avoid)
	cand.SubtractWith(v.pr)
	ch := cand.First()
	if !ch.Valid() || v.rounds >= v.factory.maxRounds {
		v.finish(false, chanset.NoChannel, false)
		return
	}
	v.rounds++
	v.counters.UpdateAttempts++
	v.active = true
	v.failed = false
	v.reqCh = ch
	v.reqTS = v.clock.Tick()
	v.granters = v.granters[:0]
	v.awaiting = make(map[hexgrid.CellID]bool)
	for _, p := range v.owners[ch] {
		if p == v.cell {
			continue
		}
		v.awaiting[p] = true
		v.env.Send(message.Message{
			Kind: message.Request, Req: message.ReqUpdate,
			From: v.cell, To: p, Ch: ch, TS: v.reqTS,
		})
	}
	if len(v.awaiting) == 0 {
		v.resolve()
	}
}

func (v *AdvUpdate) resolve() {
	v.active = false
	if v.failed {
		// Give back the pure grants we did get, then retry.
		for _, p := range v.granters {
			v.env.Send(message.Message{
				Kind: message.Release, From: v.cell, To: p, Ch: v.reqCh,
			})
		}
		v.avoid.Add(v.reqCh)
		v.attempt()
		return
	}
	v.finish(true, v.reqCh, false)
}

func (v *AdvUpdate) finish(granted bool, ch chanset.Channel, local bool) {
	id := v.reqID
	v.active = false
	if granted {
		v.use.Add(ch)
		if local {
			v.counters.GrantsLocal++
		} else {
			v.counters.GrantsUpdate++
		}
		// Every acquisition is broadcast so neighborhood views stay
		// current (the +2N term of Table 1, with the release).
		alloc.Broadcast(v.env, message.Message{
			Kind: message.Acquisition, Acq: message.AcqNonSearch,
			From: v.cell, Ch: ch,
		})
		v.env.Granted(id, ch)
	} else {
		v.counters.Drops++
		v.env.Denied(id)
	}
	v.serial.Finish()
}

// Request implements alloc.Allocator.
func (v *AdvUpdate) Request(id alloc.RequestID) { v.serial.Submit(id) }

// Release implements alloc.Allocator.
func (v *AdvUpdate) Release(ch chanset.Channel) error {
	if !v.use.Contains(ch) {
		v.counters.BadReleases++
		return fmt.Errorf("advupdate: cell %d releasing unheld channel %d", v.cell, ch)
	}
	v.use.Remove(ch)
	alloc.Broadcast(v.env, message.Message{Kind: message.Release, From: v.cell, Ch: ch})
	return nil
}

// Handle implements alloc.Allocator.
func (v *AdvUpdate) Handle(m message.Message) {
	v.clock.Witness(m.TS)
	switch m.Kind {
	case message.Request:
		v.onBorrowRequest(m)
	case message.Response:
		v.onResponse(m)
	case message.Acquisition:
		if b, ok := v.grantedTo[m.Ch]; ok && b == m.From {
			delete(v.grantedTo, m.Ch) // grant resolved: now tracked via U
		}
		v.addU(m.From, m.Ch)
	case message.Release:
		if b, ok := v.grantedTo[m.Ch]; ok && b == m.From {
			delete(v.grantedTo, m.Ch) // borrower gave the grant back
		}
		v.removeU(m.From, m.Ch)
	default:
		panic(fmt.Sprintf("advupdate: unexpected message %v", m))
	}
}

// onBorrowRequest handles a borrow request for one of our primaries.
// First-come-first-served: a pure grant goes to the first borrower;
// concurrent borrowers get conditional grants (which count as failure
// for the requester) — the source of the Figure 11 unfairness.
func (v *AdvUpdate) onBorrowRequest(m message.Message) {
	switch {
	case !v.pr.Contains(m.Ch):
		// Not our primary — only possible through config corruption.
		panic(fmt.Sprintf("advupdate: cell %d asked for non-primary %d", v.cell, m.Ch))
	case v.use.Contains(m.Ch), v.inter.Contains(m.Ch):
		v.respond(m, message.ResReject)
	case v.outGranted(m.Ch):
		v.respond(m, message.ResCondGrant)
	default:
		v.grantedTo[m.Ch] = m.From
		v.respond(m, message.ResGrant)
	}
}

func (v *AdvUpdate) respond(m message.Message, res message.ResType) {
	v.env.Send(message.Message{
		Kind: message.Response, Res: res,
		From: v.cell, To: m.From, Ch: m.Ch, TS: m.TS,
	})
}

func (v *AdvUpdate) onResponse(m message.Message) {
	if !v.active || !m.TS.Equal(v.reqTS) || !v.awaiting[m.From] {
		// Stale pure grant: give it back so the owner unblocks.
		if m.Res == message.ResGrant {
			v.env.Send(message.Message{
				Kind: message.Release, From: v.cell, To: m.From, Ch: m.Ch,
			})
		}
		return
	}
	delete(v.awaiting, m.From)
	switch m.Res {
	case message.ResGrant:
		v.granters = append(v.granters, m.From)
	case message.ResCondGrant, message.ResReject:
		v.failed = true
	}
	if len(v.awaiting) == 0 {
		v.resolve()
	}
}

// InUse implements alloc.Allocator.
func (v *AdvUpdate) InUse() chanset.Set { return v.use }

// Mode implements alloc.Allocator.
func (v *AdvUpdate) Mode() int { return 0 }

// ProtocolCounters implements alloc.CounterProvider.
func (v *AdvUpdate) ProtocolCounters() alloc.Counters { return v.counters }
