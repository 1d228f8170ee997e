package driver_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/message"
)

// Tests of Options.Check: Theorem 1 checked against the driver's table of
// the channels it reported granted (trace.Holdings), and the table checked
// against the stations.

// liar is an allocator whose Use set changes without a grant: it takes
// channel 5 for every request and reports a denial.
type liar struct {
	env alloc.Env
	use chanset.Set
}

func (l *liar) Start(env alloc.Env)           { l.env, l.use = env, chanset.NewSet(70) }
func (l *liar) Request(id alloc.RequestID)    { l.use.Add(5); l.env.Denied(id) }
func (l *liar) Release(chanset.Channel) error { return nil }
func (l *liar) Handle(message.Message)        {}
func (l *liar) InUse() chanset.Set            { return l.use }
func (l *liar) Mode() int                     { return 0 }

type liarFactory struct{}

func (liarFactory) Name() string                       { return "liar" }
func (liarFactory) New(hexgrid.CellID) alloc.Allocator { return &liar{} }

// checkCase is one faulty scheme and what the check must say about it.
type checkCase struct {
	name    string
	factory alloc.Factory
	// want is the panic's message at one shard and above it.
	want func(cell, neighbor hexgrid.CellID) (serial, sharded string)
}

var checkCases = []checkCase{
	{"co-channel grant", cochannelFactory{}, func(cell, neighbor hexgrid.CellID) (string, string) {
		// One shard checks the grant to neighbor against its neighbors'
		// rows; a barrier checks each pair from its lower cell.
		lo, hi := min(cell, neighbor), max(cell, neighbor)
		return fmt.Sprintf("co-channel interference: cells %d and %d share {0}", neighbor, cell),
			fmt.Sprintf("co-channel interference: cells %d and %d share {0}", lo, hi)
	}},
	{"use without a grant", liarFactory{}, func(cell, neighbor hexgrid.CellID) (string, string) {
		// cell's request is denied but takes channel 5 all the same, and
		// so is neighbor's; one shard stops at the first, a barrier
		// raises the lowest shard's, neighbor's.
		const disagree = "driver: cell %d's station uses {5}, but the driver granted it {} and has not released them"
		return fmt.Sprintf(disagree, cell), fmt.Sprintf(disagree, neighbor)
	}},
}

// runFaulty requests a channel at cell at t=5 and at neighbor at t=7 and
// runs d to t=100, recovering the check's panic. It returns the panic's
// message and the last tick at which one of the probes at t=8 (same
// window) and t=30 (the next) ran.
func runFaulty(t *testing.T, d *driver.Sim, cell, neighbor hexgrid.CellID) (msg string, ran int) {
	t.Helper()
	d.At(cell, 5, func() { d.Request(cell, nil) })
	d.At(neighbor, 7, func() { d.Request(neighbor, nil) })
	d.At(neighbor, 8, func() { ran = 8 })
	d.At(neighbor, 30, func() { ran = 30 })
	defer func() {
		if err, ok := recover().(error); ok {
			msg = err.Error()
		}
	}()
	d.Run(100)
	return "", ran
}

// TestCheckPanicsNamingTheFault: at one shard, under either constructor,
// a grant of a channel a neighbor holds panics in its event naming both
// cells and the channel, and so does a station whose Use set changes
// without a grant, naming the cell and both sets.
func TestCheckPanicsNamingTheFault(t *testing.T) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	assign := chanset.MustAssign(g, 70)
	cell := g.InteriorCell()
	neighbor := g.Interference(cell)[0]
	for _, c := range checkCases {
		want, _ := c.want(cell, neighbor)
		opts := driver.Options{Latency: 10, Check: true, Shards: 1, Workers: 1}
		p, err := driver.NewParallel(g, assign, c.factory, opts)
		if err != nil {
			t.Fatal(err)
		}
		for name, d := range map[string]*driver.Sim{"New": driver.New(g, assign, c.factory, opts), "NewParallel": p} {
			msg, ran := runFaulty(t, d, cell, neighbor)
			if !strings.Contains(msg, want) || ran != 0 {
				t.Errorf("%s, %s: panic %q, probes ran to t=%d; want %q in its event", c.name, name, msg, ran, want)
			}
		}
	}
}

// TestCheckAtTheBarrier: above one shard, both faults are raised at the
// barrier that ends the window they happen in — on the coordinator, with
// the window's other events run and none of the next window's — at one
// and two workers.
func TestCheckAtTheBarrier(t *testing.T) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	assign := chanset.MustAssign(g, 70)
	cell := g.InteriorCell()
	neighbor := g.Interference(cell)[0]
	for _, c := range checkCases {
		_, want := c.want(cell, neighbor)
		for _, workers := range []int{1, 2} {
			d, err := driver.NewParallel(g, assign, c.factory, driver.Options{Latency: 10, Check: true, Shards: 7, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if d.ShardOf(neighbor) >= d.ShardOf(cell) {
				t.Fatalf("cell %d is on shard %d, its neighbor %d on %d; the test wants the neighbor on a lower one", cell, d.ShardOf(cell), neighbor, d.ShardOf(neighbor))
			}
			msg, ran := runFaulty(t, d, cell, neighbor)
			if !strings.Contains(msg, want) || ran != 8 {
				t.Errorf("%s, %d workers: panic %q, probes ran to t=%d; want %q at the barrier after t=8", c.name, workers, msg, ran, want)
			}
		}
	}
}

// TestHoldingsTableAllocatesNothing: with Check, keeping the table and
// checking it — a grant, the barriers' scans, a release — allocates
// nothing per event, serially and at 7 shards.
func TestHoldingsTableAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	g, assign, tap := adaptiveTap(t)
	cell := g.InteriorCell()
	sharded, err := driver.NewParallel(g, assign, tap, driver.ParallelOptions{Latency: 10, Seed: 1, Check: true, Shards: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*driver.Sim{sharded, driver.New(g, assign, tap, driver.Options{Latency: 10, Seed: 1, Check: true})} {
		for c := 0; c < g.NumCells(); c++ { // a grid of rows to scan
			d.Request(hexgrid.CellID(c), nil)
		}
		h := &contHandler{}
		d.SetCallHandler(h)
		round := func() {
			h.ch = chanset.NoChannel
			d.RequestCont(cell, driver.Continuation{Op: 1})
			if h.ch == chanset.NoChannel {
				t.Fatalf("%s: the request was not granted on the spot", driverName(d))
			}
			d.After(cell, 10, func() {}) // a window, and a barrier, to run
			if !d.Drain(1 << 10) {
				t.Fatalf("%s: did not drain", driverName(d))
			}
			d.Release(cell, h.ch)
		}
		round()
		if allocs := testing.AllocsPerRun(500, round); allocs != 0 {
			t.Errorf("%s: %.1f allocations per checked grant, barrier and release, want 0", driverName(d), allocs)
		}
	}
}

// mover is an allocator that grants a cell's first request a channel of
// its own, 1 + the cell's id, and moves that call onto channel 0 at the
// next request, which it denies: two neighbours that both move falsify
// Theorem 1 by a move, with no grant.
type mover struct {
	env  alloc.Env
	cell hexgrid.CellID
	use  chanset.Set
}

func (m *mover) Start(env alloc.Env) { m.env, m.use = env, chanset.NewSet(70) }
func (m *mover) Request(id alloc.RequestID) {
	own := chanset.Channel(1 + m.cell)
	if !m.use.Contains(own) {
		m.use.Add(own)
		m.env.Granted(id, own)
		return
	}
	m.use.Remove(own)
	m.use.Add(0)
	m.env.Moved(own, 0)
	m.env.Denied(id)
}
func (m *mover) Release(chanset.Channel) error { return nil }
func (m *mover) Handle(message.Message)        {}
func (m *mover) InUse() chanset.Set            { return m.use }
func (m *mover) Mode() int                     { return 0 }

type moverFactory struct{}

func (moverFactory) Name() string                            { return "mover" }
func (moverFactory) New(cell hexgrid.CellID) alloc.Allocator { return &mover{cell: cell} }

// TestCheckFindsAMoveOntoANeighboursChannel: a call moved onto a channel
// a neighbour holds is a co-channel pair as much as a grant of it is. At
// one shard it panics in the move's event; above it, at the barrier
// ending the window of the move, though the cell was granted nothing in
// that window and its neighbour moved in an earlier one.
func TestCheckFindsAMoveOntoANeighboursChannel(t *testing.T) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	assign := chanset.MustAssign(g, 70)
	cell := g.InteriorCell()
	neighbor := g.Interference(cell)[0]
	for _, shards := range []int{1, 7} {
		d, err := driver.NewParallel(g, assign, moverFactory{}, driver.Options{Latency: 10, Check: true, Shards: shards, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		// Both are granted their own channel in the first window, and
		// neighbor moves onto 0; cell moves onto 0 in the second.
		d.At(neighbor, 5, func() { d.Request(neighbor, nil) })
		d.At(cell, 6, func() { d.Request(cell, nil) })
		d.At(neighbor, 7, func() { d.Request(neighbor, nil) })
		d.At(cell, 30, func() { d.Request(cell, nil) })
		ran := 0
		d.At(cell, 31, func() { ran = 31 })
		d.At(cell, 50, func() { ran = 50 })
		want, wantRan := fmt.Sprintf("cells %d and %d share {0}", cell, neighbor), 0
		if shards > 1 {
			want, wantRan = fmt.Sprintf("cells %d and %d share {0}", min(cell, neighbor), max(cell, neighbor)), 31
		}
		msg := func() (msg string) {
			defer func() {
				if err, ok := recover().(error); ok {
					msg = err.Error()
				}
			}()
			d.Run(100)
			return ""
		}()
		if !strings.Contains(msg, want) || ran != wantRan {
			t.Errorf("%d shards: panic %q, probes ran to t=%d; want %q with the probes run to t=%d", shards, msg, ran, want, wantRan)
		}
	}
}
