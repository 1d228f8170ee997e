package update

// White-box tests of the basic-update conflict rules: same-channel
// contention resolves by timestamp (older rejects, younger grants and
// aborts), and neighborhood views track ACQUISITION/RELEASE broadcasts.

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

func station(t *testing.T) (*Update, *stubEnv) {
	t.Helper()
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Hexagon, Radius: 1, ReuseDistance: 2})
	assign := chanset.MustAssign(g, 14)
	u := NewFactory(assign, 0).New(0).(*Update)
	env := &stubEnv{id: 0, neighbors: g.Interference(0), rand: sim.NewRand(1)}
	u.Start(env)
	return u, env
}

func reqTS(ms []message.Message) lamport.Stamp {
	for _, m := range ms {
		if m.Kind == message.Request {
			return m.TS
		}
	}
	return lamport.Stamp{}
}

func TestUpdateOlderRejectsYoungerSameChannel(t *testing.T) {
	u, env := station(t)
	u.Request(1)
	my := env.take()
	myTS := reqTS(my)
	myCh := u.reqCh
	// A younger request for the SAME channel arrives: reject.
	u.Handle(message.Message{Kind: message.Request, Req: message.ReqUpdate,
		From: 2, To: 0, Ch: myCh, TS: lamport.Stamp{Time: myTS.Time + 10, Node: 2}})
	ms := env.take()
	if len(ms) != 1 || ms[0].Res != message.ResReject {
		t.Fatalf("older pending request must reject the younger, got %v", ms)
	}
	if u.rejected {
		t.Fatal("our own attempt must not abort")
	}
}

func TestUpdateYoungerGrantsOlderAndAborts(t *testing.T) {
	u, env := station(t)
	u.Request(1)
	myCh := u.reqCh
	env.take()
	// An OLDER request for the same channel: grant it and abort ours.
	u.Handle(message.Message{Kind: message.Request, Req: message.ReqUpdate,
		From: 2, To: 0, Ch: myCh, TS: lamport.Stamp{Time: 0, Node: 2}})
	ms := env.take()
	if len(ms) != 1 || ms[0].Res != message.ResGrant {
		t.Fatalf("younger request must grant the older, got %v", ms)
	}
	if !u.rejected {
		t.Fatal("our own attempt must be marked aborted")
	}
}

func TestUpdateDifferentChannelNoConflict(t *testing.T) {
	u, env := station(t)
	u.Request(1)
	myCh := u.reqCh
	env.take()
	other := myCh + 1
	u.Handle(message.Message{Kind: message.Request, Req: message.ReqUpdate,
		From: 2, To: 0, Ch: other, TS: lamport.Stamp{Time: 0, Node: 2}})
	ms := env.take()
	if len(ms) != 1 || ms[0].Res != message.ResGrant {
		t.Fatalf("non-conflicting request must be granted, got %v", ms)
	}
	if u.rejected {
		t.Fatal("different channel must not abort our attempt")
	}
}

func TestUpdateRetriesAvoidRejectedChannel(t *testing.T) {
	u, env := station(t)
	u.Request(1)
	first := u.reqCh
	firstTS := u.reqTS
	env.take()
	// Everyone rejects the first attempt.
	for _, j := range env.neighbors {
		u.Handle(message.Message{Kind: message.Response, Res: message.ResReject,
			From: j, To: 0, Ch: first, TS: firstTS})
	}
	second := u.reqCh
	if second == first {
		t.Fatal("retry must pick a different channel")
	}
	if ms := env.take(); len(ms) != len(env.neighbors) {
		t.Fatalf("retry must re-broadcast, sent %d", len(ms))
	}
	// Grant the second attempt fully.
	for _, j := range env.neighbors {
		u.Handle(message.Message{Kind: message.Response, Res: message.ResGrant,
			From: j, To: 0, Ch: second, TS: u.reqTS})
	}
	if len(env.granted) != 1 || env.granted[0] != second {
		t.Fatalf("grant flow broken: %v", env.granted)
	}
	ms := env.take()
	acqs := 0
	for _, m := range ms {
		if m.Kind == message.Acquisition {
			acqs++
		}
	}
	if acqs != len(env.neighbors) {
		t.Fatalf("acquisition must broadcast to all %d neighbors, sent %d", len(env.neighbors), acqs)
	}
}

func TestUpdateStaleResponsesIgnored(t *testing.T) {
	u, env := station(t)
	u.Request(1)
	env.take()
	stale := lamport.Stamp{Time: u.reqTS.Time - 1, Node: u.reqTS.Node}
	u.Handle(message.Message{Kind: message.Response, Res: message.ResReject,
		From: env.neighbors[0], To: 0, Ch: u.reqCh, TS: stale})
	if u.rejected {
		t.Fatal("stale response must not affect the live attempt")
	}
}

func TestUpdateViewTracking(t *testing.T) {
	u, _ := station(t)
	u.Handle(message.Message{Kind: message.Acquisition, From: 1, To: 0, Ch: 5})
	if !u.inter.Contains(5) {
		t.Fatal("acquisition must enter the view")
	}
	u.Handle(message.Message{Kind: message.Acquisition, From: 2, To: 0, Ch: 5})
	u.Handle(message.Message{Kind: message.Release, From: 1, To: 0, Ch: 5})
	if !u.inter.Contains(5) {
		t.Fatal("refcount: still used by neighbor 2")
	}
	u.Handle(message.Message{Kind: message.Release, From: 2, To: 0, Ch: 5})
	if u.inter.Contains(5) {
		t.Fatal("both released")
	}
}
