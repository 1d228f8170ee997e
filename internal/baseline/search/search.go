// Package search implements the basic search scheme of Dong & Lai
// (ICDCS'97), the paper's first comparison baseline: a station needing a
// channel collects the Use set of every cell in its interference region
// (2N messages), computes the free set, and picks a channel. Timestamped
// deferral sequentializes concurrent searches in overlapping regions, so
// a searcher finds a channel whenever one is free in its collected view.
package search

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/lamport"
	"repro/internal/message"
)

// Factory builds basic-search allocators.
type Factory struct {
	assign *chanset.Assignment
}

// NewFactory returns a Factory over the given spectrum plan. The primary
// assignment is unused for channel selection (pure dynamic scheme) but
// carries the spectrum size.
func NewFactory(assign *chanset.Assignment) *Factory {
	return &Factory{assign: assign}
}

// Name implements alloc.Factory.
func (f *Factory) Name() string { return "basic-search" }

// New implements alloc.Factory.
func (f *Factory) New(cell hexgrid.CellID) alloc.Allocator {
	return &Search{cell: cell, spectrum: f.assign.Spectrum, nchan: f.assign.NumChannels}
}

type deferred struct {
	ts   lamport.Stamp
	from hexgrid.CellID
}

// Search is one cell's basic-search allocator.
type Search struct {
	cell      hexgrid.CellID
	env       alloc.Env
	spectrum  chanset.Set
	nchan     int
	neighbors []hexgrid.CellID
	clock     *lamport.Clock
	use       chanset.Set
	serial    alloc.Serial
	counters  alloc.Counters

	// Active search state.
	reqID    alloc.RequestID
	reqTS    lamport.Stamp
	active   bool
	awaiting map[hexgrid.CellID]bool
	gathered chanset.Set // union of collected Use sets
	deferQ   []deferred
}

// Start implements alloc.Allocator.
func (s *Search) Start(env alloc.Env) {
	s.env = env
	s.neighbors = env.Neighbors()
	s.clock = lamport.NewClock(int32(s.cell))
	s.use = chanset.NewSet(s.nchan)
	s.serial.SetStart(s.begin)
}

func (s *Search) begin(id alloc.RequestID) {
	s.env.Began(id)
	s.reqID = id
	s.reqTS = s.clock.Tick()
	s.active = true
	s.gathered = chanset.NewSet(s.nchan)
	s.awaiting = make(map[hexgrid.CellID]bool, len(s.neighbors))
	for _, j := range s.neighbors {
		s.awaiting[j] = true
	}
	alloc.Broadcast(s.env, message.Message{
		Kind: message.Request, Req: message.ReqSearch,
		From: s.cell, Ch: chanset.NoChannel, TS: s.reqTS,
	})
	if len(s.awaiting) == 0 {
		s.complete()
	}
}

func (s *Search) complete() {
	free := s.spectrum.Clone()
	free.SubtractWith(s.use)
	free.SubtractWith(s.gathered)
	id := s.reqID
	s.active = false
	var granted bool
	var ch chanset.Channel
	if ch = free.First(); ch.Valid() {
		s.use.Add(ch)
		s.counters.GrantsSearch++
		granted = true
	} else {
		s.counters.Drops++
	}
	// Serve deferred searchers with the post-decision Use set: this is
	// what makes the outcome visible to lower-priority searches.
	q := s.deferQ
	s.deferQ = nil
	for _, d := range q {
		s.env.Send(message.Message{
			Kind: message.Response, Res: message.ResSearch,
			From: s.cell, To: d.from, TS: d.ts, Use: s.use.Clone(),
		})
	}
	if granted {
		s.env.Granted(id, ch)
	} else {
		s.env.Denied(id)
	}
	s.serial.Finish()
}

// Request implements alloc.Allocator.
func (s *Search) Request(id alloc.RequestID) { s.serial.Submit(id) }

// Release implements alloc.Allocator. Releases are purely local in the
// basic search scheme: the next search collects fresh Use sets anyway.
func (s *Search) Release(ch chanset.Channel) error {
	if !s.use.Contains(ch) {
		s.counters.BadReleases++
		return fmt.Errorf("search: cell %d releasing unheld channel %d", s.cell, ch)
	}
	s.use.Remove(ch)
	return nil
}

// Handle implements alloc.Allocator.
func (s *Search) Handle(m message.Message) {
	s.clock.Witness(m.TS)
	switch m.Kind {
	case message.Request:
		// A search request: defer it if our own active search is older.
		if s.active && s.reqTS.Less(m.TS) {
			s.deferQ = append(s.deferQ, deferred{ts: m.TS, from: m.From})
			return
		}
		s.env.Send(message.Message{
			Kind: message.Response, Res: message.ResSearch,
			From: s.cell, To: m.From, TS: m.TS, Use: s.use.Clone(),
		})
	case message.Response:
		if !s.active || !m.TS.Equal(s.reqTS) || !s.awaiting[m.From] {
			return // stale response from an earlier search
		}
		delete(s.awaiting, m.From)
		s.gathered.UnionWith(m.Use)
		if len(s.awaiting) == 0 {
			s.complete()
		}
	default:
		panic(fmt.Sprintf("search: unexpected message %v", m))
	}
}

// InUse implements alloc.Allocator.
func (s *Search) InUse() chanset.Set { return s.use }

// Mode implements alloc.Allocator.
func (s *Search) Mode() int { return 0 }

// ProtocolCounters implements alloc.CounterProvider.
func (s *Search) ProtocolCounters() alloc.Counters { return s.counters }
