package core

// White-box tests: drive one station's handlers directly with crafted
// messages through a stub environment and assert on the exact responses,
// covering each branch of Figure 4 and the defer/waiting machinery that
// the scenario tests only exercise statistically.

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/lamport"
	"repro/internal/message"
	"repro/internal/sim"
)

// stubEnv records everything the station does.
type stubEnv struct {
	id        hexgrid.CellID
	neighbors []hexgrid.CellID
	now       sim.Time
	sent      []message.Message
	granted   []chanset.Channel
	denied    int
	rand      *sim.Rand
}

func (e *stubEnv) ID() hexgrid.CellID          { return e.id }
func (e *stubEnv) Neighbors() []hexgrid.CellID { return e.neighbors }
func (e *stubEnv) Now() sim.Time               { return e.now }
func (e *stubEnv) Latency() sim.Time           { return 10 }
func (e *stubEnv) Send(m message.Message) {
	m.Use = m.Use.Clone() // kept past the call: the Env.Send contract
	e.sent = append(e.sent, m)
}
func (e *stubEnv) Began(alloc.RequestID) {}
func (e *stubEnv) Granted(_ alloc.RequestID, ch chanset.Channel) {
	e.granted = append(e.granted, ch)
}
func (e *stubEnv) Denied(alloc.RequestID)         { e.denied++ }
func (e *stubEnv) Rand() *sim.Rand                { return e.rand }
func (e *stubEnv) Moved(from, to chanset.Channel) { panic("unused") }

// station wires a 3-cell line topology: cells 0,1,2 all within reuse
// distance (hexagon radius 1 grid, reuse 2 — every pair interferes).
func station(t *testing.T) (*Adaptive, *stubEnv) {
	t.Helper()
	// 14 channels over 7 colors: 2 primaries per cell.
	a, env, _ := stationAt(t, hexgrid.Config{Shape: hexgrid.Hexagon, Radius: 1, ReuseDistance: 2}, 14, 0)
	return a, env
}

func (e *stubEnv) take() []message.Message {
	out := e.sent
	e.sent = nil
	return out
}

func lastKind(ms []message.Message, k message.Kind) *message.Message {
	for i := len(ms) - 1; i >= 0; i-- {
		if ms[i].Kind == k {
			return &ms[i]
		}
	}
	return nil
}

func TestHandlerUpdateRequestGrantWhenFree(t *testing.T) {
	a, env := station(t)
	ts := lamport.Stamp{Time: 5, Node: 1}
	a.Handle(message.Message{Kind: message.Request, Req: message.ReqUpdate, From: 1, To: 0, Ch: 9, TS: ts})
	ms := env.take()
	if len(ms) != 1 || ms[0].Res != message.ResGrant || ms[0].Ch != 9 || !ms[0].TS.Equal(ts) {
		t.Fatalf("expected grant echoing ts, got %v", ms)
	}
	if !a.view(setInter).Contains(9) {
		t.Fatal("granted channel must enter I_i")
	}
	if a.granted(a.nbrIdx(1), 9) < 0 {
		t.Fatal("granted channel must be recorded in the D9 overlay")
	}
}

func TestHandlerUpdateRequestRejectWhenInUse(t *testing.T) {
	a, env := station(t)
	a.Request(1) // acquires a free primary synchronously (mode 0)
	ch := env.granted[0]
	env.take()
	a.Handle(message.Message{Kind: message.Request, Req: message.ReqUpdate, From: 1, To: 0, Ch: ch,
		TS: lamport.Stamp{Time: 50, Node: 1}})
	ms := env.take()
	if len(ms) != 1 || ms[0].Res != message.ResReject {
		t.Fatalf("expected reject for in-use channel, got %v", ms)
	}
	if a.granted(a.nbrIdx(1), ch) >= 0 {
		t.Fatal("rejected channel must not enter the grant overlay")
	}
}

func TestHandlerSearchRequestRespondsWithUse(t *testing.T) {
	a, env := station(t)
	a.Request(1)
	ch := env.granted[0]
	env.take()
	a.Handle(message.Message{Kind: message.Request, Req: message.ReqSearch, From: 2, To: 0,
		Ch: chanset.NoChannel, TS: lamport.Stamp{Time: 9, Node: 2}})
	ms := env.take()
	if len(ms) != 1 || ms[0].Res != message.ResSearch || !ms[0].Use.Contains(ch) {
		t.Fatalf("expected search response carrying Use set, got %v", ms)
	}
	if a.waiting != 1 {
		t.Fatalf("waiting = %d, want 1", a.waiting)
	}
}

func TestHandlerAcquisitionDecrementsWaiting(t *testing.T) {
	a, env := station(t)
	a.Handle(message.Message{Kind: message.Request, Req: message.ReqSearch, From: 2, To: 0,
		TS: lamport.Stamp{Time: 9, Node: 2}})
	env.take()
	if a.waiting != 1 {
		t.Fatal("setup")
	}
	// The searcher dropped: ACQUISITION(search, -1) still decrements.
	a.Handle(message.Message{Kind: message.Acquisition, Acq: message.AcqSearch, From: 2, To: 0,
		Ch: chanset.NoChannel})
	if a.waiting != 0 {
		t.Fatalf("waiting = %d after drop acquisition", a.waiting)
	}
	if !a.view(setInter).Empty() {
		t.Fatal("a -1 acquisition must not pollute I_i")
	}
}

func TestHandlerChangeModeTracksUpdateS(t *testing.T) {
	a, env := station(t)
	a.Handle(message.Message{Kind: message.ChangeMode, Mode: message.ModeBorrowing, From: 3, To: 0})
	ms := env.take()
	if len(ms) != 1 || ms[0].Res != message.ResStatus {
		t.Fatalf("expected status response, got %v", ms)
	}
	if !a.inMask(maskUpdateS, a.nbrIdx(3)) {
		t.Fatal("sender must join UpdateS")
	}
	a.Handle(message.Message{Kind: message.ChangeMode, Mode: message.ModeLocal, From: 3, To: 0})
	env.take()
	if a.inMask(maskUpdateS, a.nbrIdx(3)) {
		t.Fatal("sender must leave UpdateS")
	}
}

func TestHandlerReleaseClearsInterference(t *testing.T) {
	a, env := station(t)
	a.Handle(message.Message{Kind: message.Request, Req: message.ReqUpdate, From: 1, To: 0, Ch: 9,
		TS: lamport.Stamp{Time: 5, Node: 1}})
	env.take()
	a.Handle(message.Message{Kind: message.Release, From: 1, To: 0, Ch: 9})
	if a.view(setInter).Contains(9) {
		t.Fatal("release must clear I_i")
	}
	if a.granted(a.nbrIdx(1), 9) >= 0 {
		t.Fatal("release must clear the grant overlay")
	}
}

func TestHandlerStatusSnapshotCannotEraseGrant(t *testing.T) {
	// The D9 regression in miniature: grant ch to 1, then receive a
	// stale empty snapshot from 1; ch must stay in I_i.
	a, env := station(t)
	a.Handle(message.Message{Kind: message.Request, Req: message.ReqUpdate, From: 1, To: 0, Ch: 9,
		TS: lamport.Stamp{Time: 5, Node: 1}})
	env.take()
	a.Handle(message.Message{Kind: message.Response, Res: message.ResStatus, From: 1, To: 0,
		Use: chanset.NewSet(14)})
	if !a.view(setInter).Contains(9) {
		t.Fatal("stale snapshot erased a pending grant (D9 regression)")
	}
	// Once the channel shows up in a snapshot, the overlay resolves and
	// later snapshots govern.
	a.Handle(message.Message{Kind: message.Response, Res: message.ResStatus, From: 1, To: 0,
		Use: chanset.SetOf(9)})
	if a.granted(a.nbrIdx(1), 9) >= 0 {
		t.Fatal("overlay should resolve when the snapshot shows the channel")
	}
	a.Handle(message.Message{Kind: message.Response, Res: message.ResStatus, From: 1, To: 0,
		Use: chanset.NewSet(14)})
	if a.view(setInter).Contains(9) {
		t.Fatal("post-resolution snapshots must clear the channel")
	}
}

func TestHandlerTwoNeighborsSameChannelRefcount(t *testing.T) {
	// Neighbors 1 and 4 may legitimately both use channel 9 (they need
	// not interfere with each other). I_0 must keep the channel until
	// BOTH release — the refcount the paper's set-valued I misses.
	a, _ := station(t)
	a.Handle(message.Message{Kind: message.Acquisition, Acq: message.AcqNonSearch, From: 1, To: 0, Ch: 9})
	a.Handle(message.Message{Kind: message.Acquisition, Acq: message.AcqNonSearch, From: 4, To: 0, Ch: 9})
	a.Handle(message.Message{Kind: message.Release, From: 1, To: 0, Ch: 9})
	if !a.view(setInter).Contains(9) {
		t.Fatal("channel still used by neighbor 4 — must stay in I_0")
	}
	a.Handle(message.Message{Kind: message.Release, From: 4, To: 0, Ch: 9})
	if a.view(setInter).Contains(9) {
		t.Fatal("both released — channel must leave I_0")
	}
}

func TestHandlerSearchDeferredWhilePendingOlder(t *testing.T) {
	// Station 0 exhausts primaries and goes into borrowing-search mode;
	// a younger search request must be deferred, an older one answered.
	a, env := station(t)
	// Exhaust both primaries; acquiring the last one trips check_mode
	// into borrowing (predicted free primaries fall to zero).
	a.Request(1)
	a.Request(2)
	env.granted = nil
	if lastKind(env.take(), message.ChangeMode) == nil {
		t.Fatal("exhausting primaries should broadcast CHANGE_MODE(1)")
	}
	if a.Mode() != ModeBorrow {
		t.Fatalf("mode = %d, want borrowing", a.Mode())
	}
	// Occupy everything else in 0's view so the next request searches.
	full := chanset.FullSet(14)
	a.Handle(message.Message{Kind: message.Response, Res: message.ResStatus, From: 1, To: 0, Use: full})
	env.take()
	a.Request(3) // no free channel in view, Best() finds nothing → search
	msgs := env.take()
	req := lastKind(msgs, message.Request)
	if req == nil || req.Req != message.ReqSearch {
		t.Fatalf("expected search broadcast, got %v", msgs)
	}
	myTS := req.TS
	// Younger search arrives → deferred.
	young := lamport.Stamp{Time: myTS.Time + 100, Node: 5}
	a.Handle(message.Message{Kind: message.Request, Req: message.ReqSearch, From: 5, To: 0, TS: young})
	if ms := env.take(); len(ms) != 0 {
		t.Fatalf("younger search must be deferred, got %v", ms)
	}
	if !a.Warm() || len(a.blk.deferQ) != 1 || !a.blk.deferQ[0].search {
		t.Fatalf("deferQ = %+v", a.blk)
	}
	// Older search arrives → answered immediately.
	old := lamport.Stamp{Time: 0, Node: 5}
	a.Handle(message.Message{Kind: message.Request, Req: message.ReqSearch, From: 4, To: 0, TS: old})
	ms := env.take()
	if len(ms) != 1 || ms[0].Res != message.ResSearch {
		t.Fatalf("older search must be answered, got %v", ms)
	}
}

func TestHandlerModeQueryAccessors(t *testing.T) {
	a, env := station(t)
	if a.Mode() != ModeLocal {
		t.Fatal("fresh station is local")
	}
	if a.Waiting() != 0 {
		t.Fatal("fresh station has waiting 0")
	}
	if a.Primary().Len() != 2 {
		t.Fatalf("primaries: %v", a.Primary())
	}
	a.Request(1)
	if len(env.granted) != 1 || !a.InUse().Contains(env.granted[0]) {
		t.Fatal("InUse must reflect the grant")
	}
	c := a.ProtocolCounters()
	if c.GrantsLocal != 1 {
		t.Fatalf("counters: %+v", c)
	}
}

func TestLenderPolicyString(t *testing.T) {
	if LenderBest.String() != "best" || LenderFirst.String() != "first" || LenderRandom.String() != "random" {
		t.Error("policy strings")
	}
	if LenderPolicy(9).String() == "" {
		t.Error("unknown policy should format")
	}
}

func TestParamsRejectBadLender(t *testing.T) {
	p := DefaultParams(10)
	p.Lender = LenderPolicy(42)
	if err := p.Validate(); err == nil {
		t.Fatal("unknown lender policy must be rejected")
	}
}
