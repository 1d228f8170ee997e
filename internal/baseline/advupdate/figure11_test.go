package advupdate

// White-box reproduction of the paper's Figure 11: in the advanced
// update scheme, owners grant first-come-first-served, so a borrower
// whose request has an OLDER timestamp can lose to a younger one whose
// messages arrive first — the unfairness the adaptive scheme fixes by
// broadcasting to the whole region.

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/lamport"
	"repro/internal/message"
	"repro/internal/sim"
)

type stubEnv struct {
	id        hexgrid.CellID
	neighbors []hexgrid.CellID
	sent      []message.Message
	granted   []chanset.Channel
	denied    int
	rand      *sim.Rand
}

func (e *stubEnv) ID() hexgrid.CellID          { return e.id }
func (e *stubEnv) Neighbors() []hexgrid.CellID { return e.neighbors }
func (e *stubEnv) Now() sim.Time               { return 0 }
func (e *stubEnv) Latency() sim.Time           { return 10 }
func (e *stubEnv) Send(m message.Message)      { e.sent = append(e.sent, m) }
func (e *stubEnv) Began(alloc.RequestID)       {}
func (e *stubEnv) Granted(_ alloc.RequestID, ch chanset.Channel) {
	e.granted = append(e.granted, ch)
}
func (e *stubEnv) Denied(alloc.RequestID)         { e.denied++ }
func (e *stubEnv) Rand() *sim.Rand                { return e.rand }
func (e *stubEnv) Moved(from, to chanset.Channel) { panic("unused") }

func (e *stubEnv) take() []message.Message {
	out := e.sent
	e.sent = nil
	return out
}

// TestFigure11OwnerFirstComeFirstServed drives one owner cell directly:
// two borrow requests for the same primary arrive; the first — even with
// the YOUNGER timestamp — gets the pure grant, the older-but-later one
// gets only a conditional grant and will therefore fail its round.
func TestFigure11OwnerFirstComeFirstServed(t *testing.T) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Hexagon, Radius: 1, ReuseDistance: 2})
	assign := chanset.MustAssign(g, 7) // one primary per cell
	f := NewFactory(g, assign, 0)
	owner := f.New(0).(*AdvUpdate)
	env := &stubEnv{id: 0, neighbors: g.Interference(0), rand: sim.NewRand(1)}
	owner.Start(env)
	r := assign.Primary[0].First()

	// c2's request was generated LATER (higher timestamp) but arrives
	// FIRST — the paper's "messages of c2 overtake those of c1".
	owner.Handle(message.Message{Kind: message.Request, Req: message.ReqUpdate,
		From: 2, To: 0, Ch: r, TS: stamp(20, 2)})
	ms := env.take()
	if len(ms) != 1 || ms[0].Res != message.ResGrant {
		t.Fatalf("first-arriving (younger) borrower should get the pure grant, got %v", ms)
	}
	// c1's OLDER request arrives second and gets only a conditional
	// grant: its round will fail despite its priority.
	owner.Handle(message.Message{Kind: message.Request, Req: message.ReqUpdate,
		From: 1, To: 0, Ch: r, TS: stamp(10, 1)})
	ms = env.take()
	if len(ms) != 1 || ms[0].Res != message.ResCondGrant {
		t.Fatalf("older-but-later borrower should get a conditional grant, got %v", ms)
	}
}

// TestFigure11GrantResolvesOnConfirm completes the story: once the
// winner broadcasts its acquisition, the owner's pending-grant state
// resolves and later requests are judged against I (reject), not the
// grant book.
func TestFigure11GrantResolvesOnConfirm(t *testing.T) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Hexagon, Radius: 1, ReuseDistance: 2})
	assign := chanset.MustAssign(g, 7)
	f := NewFactory(g, assign, 0)
	owner := f.New(0).(*AdvUpdate)
	env := &stubEnv{id: 0, neighbors: g.Interference(0), rand: sim.NewRand(1)}
	owner.Start(env)
	r := assign.Primary[0].First()

	owner.Handle(message.Message{Kind: message.Request, Req: message.ReqUpdate,
		From: 2, To: 0, Ch: r, TS: stamp(20, 2)})
	env.take()
	if !owner.outGranted(r) {
		t.Fatal("grant must be pending")
	}
	owner.Handle(message.Message{Kind: message.Acquisition, Acq: message.AcqNonSearch,
		From: 2, To: 0, Ch: r})
	if owner.outGranted(r) {
		t.Fatal("acquisition must resolve the pending grant")
	}
	// A third borrower now gets a plain reject (channel in I).
	owner.Handle(message.Message{Kind: message.Request, Req: message.ReqUpdate,
		From: 3, To: 0, Ch: r, TS: stamp(5, 3)})
	ms := env.take()
	if len(ms) != 1 || ms[0].Res != message.ResReject {
		t.Fatalf("in-use channel should reject, got %v", ms)
	}
	// And a release by the holder frees it again.
	owner.Handle(message.Message{Kind: message.Release, From: 2, To: 0, Ch: r})
	owner.Handle(message.Message{Kind: message.Request, Req: message.ReqUpdate,
		From: 3, To: 0, Ch: r, TS: stamp(6, 3)})
	ms = env.take()
	if len(ms) != 1 || ms[0].Res != message.ResGrant {
		t.Fatalf("freed channel should grant again, got %v", ms)
	}
}

// TestFigure11AbortedWinnerReleasesGrant: the winner's round fails
// elsewhere and it returns the grant; the owner must make the channel
// available again.
func TestFigure11AbortedWinnerReleasesGrant(t *testing.T) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Hexagon, Radius: 1, ReuseDistance: 2})
	assign := chanset.MustAssign(g, 7)
	f := NewFactory(g, assign, 0)
	owner := f.New(0).(*AdvUpdate)
	env := &stubEnv{id: 0, neighbors: g.Interference(0), rand: sim.NewRand(1)}
	owner.Start(env)
	r := assign.Primary[0].First()

	owner.Handle(message.Message{Kind: message.Request, Req: message.ReqUpdate,
		From: 2, To: 0, Ch: r, TS: stamp(20, 2)})
	env.take()
	owner.Handle(message.Message{Kind: message.Release, From: 2, To: 0, Ch: r})
	if owner.outGranted(r) {
		t.Fatal("release must clear the pending grant")
	}
	owner.Handle(message.Message{Kind: message.Request, Req: message.ReqUpdate,
		From: 1, To: 0, Ch: r, TS: stamp(30, 1)})
	ms := env.take()
	if len(ms) != 1 || ms[0].Res != message.ResGrant {
		t.Fatalf("channel must be grantable after the winner aborted, got %v", ms)
	}
}

func stamp(t int64, node int32) lamport.Stamp { return lamport.Stamp{Time: t, Node: node} }
