package search

// White-box tests of the basic-search deferral rules.

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

func station(t *testing.T) (*Search, *stubEnv) {
	t.Helper()
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Hexagon, Radius: 1, ReuseDistance: 2})
	assign := chanset.MustAssign(g, 14)
	s := NewFactory(assign).New(0).(*Search)
	env := &stubEnv{id: 0, neighbors: g.Interference(0), rand: sim.NewRand(1)}
	s.Start(env)
	return s, env
}

func TestSearchIdleRespondsImmediately(t *testing.T) {
	s, env := station(t)
	s.Handle(message.Message{Kind: message.Request, Req: message.ReqSearch,
		From: 2, To: 0, TS: lamport.Stamp{Time: 3, Node: 2}})
	ms := env.take()
	if len(ms) != 1 || ms[0].Res != message.ResSearch {
		t.Fatalf("idle station must answer searches, got %v", ms)
	}
}

func TestSearchDefersYoungerWhileActive(t *testing.T) {
	s, env := station(t)
	s.Request(1)
	env.take()
	young := lamport.Stamp{Time: s.reqTS.Time + 5, Node: 5}
	s.Handle(message.Message{Kind: message.Request, Req: message.ReqSearch, From: 5, To: 0, TS: young})
	if ms := env.take(); len(ms) != 0 {
		t.Fatalf("younger search must be deferred, got %v", ms)
	}
	old := lamport.Stamp{Time: 0, Node: 4}
	s.Handle(message.Message{Kind: message.Request, Req: message.ReqSearch, From: 4, To: 0, TS: old})
	if ms := env.take(); len(ms) != 1 || ms[0].Res != message.ResSearch {
		t.Fatalf("older search must be answered, got %v", ms)
	}
	// Complete our search: every neighbor reports an empty Use set.
	for _, j := range env.neighbors {
		s.Handle(message.Message{Kind: message.Response, Res: message.ResSearch,
			From: j, To: 0, TS: s.reqTS, Use: chanset.NewSet(14)})
	}
	if len(env.granted) != 1 {
		t.Fatalf("search should have granted: %v", env.granted)
	}
	// The deferred searcher now gets our post-decision Use set.
	ms := env.take()
	if len(ms) != 1 || ms[0].To != 5 || !ms[0].Use.Contains(env.granted[0]) {
		t.Fatalf("deferred response must carry the fresh Use set, got %v", ms)
	}
}

func TestSearchPicksFromComplement(t *testing.T) {
	s, env := station(t)
	s.Request(1)
	env.take()
	// Neighbors jointly use channels 0..12; only 13 remains.
	for i, j := range env.neighbors {
		use := chanset.NewSet(14)
		for c := 0; c <= 12; c++ {
			if c%len(env.neighbors) == i%len(env.neighbors) {
				use.Add(chanset.Channel(c))
			}
		}
		// Make the union complete regardless of distribution.
		if i == 0 {
			for c := 0; c <= 12; c++ {
				use.Add(chanset.Channel(c))
			}
		}
		s.Handle(message.Message{Kind: message.Response, Res: message.ResSearch,
			From: j, To: 0, TS: s.reqTS, Use: use})
	}
	if len(env.granted) != 1 || env.granted[0] != 13 {
		t.Fatalf("must pick the only free channel 13, got %v", env.granted)
	}
}

func TestSearchDeniesWhenSpectrumFull(t *testing.T) {
	s, env := station(t)
	s.Request(1)
	env.take()
	for _, j := range env.neighbors {
		s.Handle(message.Message{Kind: message.Response, Res: message.ResSearch,
			From: j, To: 0, TS: s.reqTS, Use: chanset.FullSet(14)})
	}
	if env.denied != 1 || len(env.granted) != 0 {
		t.Fatalf("full spectrum must deny: denied=%d granted=%v", env.denied, env.granted)
	}
}

func TestSearchStaleResponseIgnored(t *testing.T) {
	s, env := station(t)
	s.Request(1)
	env.take()
	stale := lamport.Stamp{Time: s.reqTS.Time + 99, Node: 0}
	s.Handle(message.Message{Kind: message.Response, Res: message.ResSearch,
		From: env.neighbors[0], To: 0, TS: stale, Use: chanset.FullSet(14)})
	if len(s.awaiting) != len(env.neighbors) {
		t.Fatal("stale response must not count")
	}
}
