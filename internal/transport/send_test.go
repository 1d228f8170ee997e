package transport_test

import (
	"reflect"
	"testing"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/lamport"
	"repro/internal/message"
	"repro/internal/sim"
	"repro/internal/transport"
)

// The DES transport is the driver's alloc.Env: Send and Multicast frame
// a message with transport.EventOf and post it on the event kernel one
// latency ahead. These tests pin its delivery contract — latency, FIFO
// per link with and without jitter, counts by kind and wire bytes,
// multicast == sends — through stations that do nothing but record, on
// both of the driver's constructors.

// station is an allocator that records what it is delivered.
type station struct {
	env  alloc.Env
	at   []sim.Time
	msgs []message.Message
}

func (s *station) Start(env alloc.Env)           { s.env = env }
func (s *station) Request(alloc.RequestID)       {}
func (s *station) Release(chanset.Channel) error { return nil }
func (s *station) InUse() chanset.Set            { return chanset.Set{} }
func (s *station) Mode() int                     { return 0 }

func (s *station) Handle(m message.Message) {
	m.Use = m.Use.Clone() // a view, valid for this call only
	s.at = append(s.at, s.env.Now())
	s.msgs = append(s.msgs, m)
}

// stations is the factory: cell i's station is stations[i].
type stations []*station

func (stations) Name() string { return "recorder" }

func (st stations) New(cell hexgrid.CellID) alloc.Allocator {
	st[cell] = &station{}
	return st[cell]
}

// desConstructors runs f on a driver from each constructor, the sharded
// one with the senders and receivers the tests use spread over three
// shards.
func desConstructors(t *testing.T, grid hexgrid.Config, opts driver.Options, f func(t *testing.T, d *driver.Sim, st stations)) {
	t.Helper()
	g := hexgrid.MustNew(grid)
	assign := chanset.MustAssign(g, 70)
	t.Run("New", func(t *testing.T) {
		st := make(stations, g.NumCells())
		f(t, driver.New(g, assign, st, opts), st)
	})
	t.Run("NewParallel", func(t *testing.T) {
		st := make(stations, g.NumCells())
		opts := opts
		opts.Shards, opts.Workers = 3, 2
		d, err := driver.NewParallel(g, assign, st, opts)
		if err != nil {
			t.Fatal(err)
		}
		f(t, d, st)
	})
}

var toyGrid = hexgrid.Config{Shape: hexgrid.Rect, Width: 8, Height: 8, ReuseDistance: 2, Wrap: true}

func TestDESDeliversAfterLatency(t *testing.T) {
	desConstructors(t, toyGrid, driver.Options{Latency: 10}, func(t *testing.T, d *driver.Sim, st stations) {
		d.At(1, 5, func() {
			st[1].env.Send(message.Message{Kind: message.Release, To: 40, Ch: 3})
		})
		d.Run(1000)
		rec := st[40]
		if len(rec.msgs) != 1 {
			t.Fatalf("delivered %d messages", len(rec.msgs))
		}
		if rec.at[0] != 15 {
			t.Fatalf("delivered at %d, want 15", rec.at[0])
		}
		if rec.msgs[0].Ch != 3 || rec.msgs[0].From != 1 {
			t.Fatalf("payload mangled: %+v", rec.msgs[0])
		}
	})
}

func TestDESFIFOFixedLatency(t *testing.T) {
	desConstructors(t, toyGrid, driver.Options{Latency: 7}, func(t *testing.T, d *driver.Sim, st stations) {
		d.At(0, 0, func() {
			for i := 0; i < 20; i++ {
				st[0].env.Send(message.Message{Kind: message.Request, To: 63, Ch: chanset.Channel(i)})
			}
		})
		d.Run(1000)
		if len(st[63].msgs) != 20 {
			t.Fatalf("delivered %d of 20", len(st[63].msgs))
		}
		for i, m := range st[63].msgs {
			if int(m.Ch) != i {
				t.Fatalf("FIFO violated: slot %d got ch %d", i, m.Ch)
			}
		}
	})
}

func TestDESFIFOWithJitter(t *testing.T) {
	desConstructors(t, toyGrid, driver.Options{Latency: 5, Jitter: 9, Seed: 123}, func(t *testing.T, d *driver.Sim, st stations) {
		const n = 200
		for i := 0; i < n; i++ {
			i := i
			d.At(0, sim.Time(i), func() {
				st[0].env.Send(message.Message{Kind: message.Request, To: 63, Ch: chanset.Channel(i)})
			})
		}
		d.Run(100000)
		rec := st[63]
		if len(rec.msgs) != n {
			t.Fatalf("delivered %d of %d", len(rec.msgs), n)
		}
		for i, m := range rec.msgs {
			if int(m.Ch) != i {
				t.Fatalf("jittered FIFO violated at %d: ch %d", i, m.Ch)
			}
		}
		// Deliveries must never be earlier than base latency, and jitter
		// must have held some of them back.
		late := 0
		for i, at := range rec.at {
			if at < sim.Time(i)+5 {
				t.Fatalf("message %d delivered at %d, before send+latency", i, at)
			}
			if at > sim.Time(i)+5 {
				late++
			}
		}
		if late == 0 {
			t.Fatal("no delivery was jittered")
		}
	})
}

func TestDESJitterSpreadsDeliveries(t *testing.T) {
	desConstructors(t, toyGrid, driver.Options{Latency: 5, Jitter: 20, Seed: 7}, func(t *testing.T, d *driver.Sim, st stations) {
		// Different links → jitter independent, so arrival times vary.
		for i := 0; i < 50; i++ {
			from := hexgrid.CellID(10 + i)
			d.At(from, 0, func() {
				st[from].env.Send(message.Message{Kind: message.Request, To: 1})
			})
		}
		d.Run(1000)
		distinct := map[sim.Time]bool{}
		for _, at := range st[1].at {
			distinct[at] = true
		}
		if len(st[1].at) != 50 || len(distinct) < 5 {
			t.Fatalf("%d deliveries at only %d distinct arrival times", len(st[1].at), len(distinct))
		}
	})
}

// TestDESStats: messages are counted by kind, and with Wire every one
// makes the codec round trip and its bytes are counted.
func TestDESStats(t *testing.T) {
	kinds := []message.Kind{message.Request, message.Request, message.Response, message.Release}
	for _, wire := range []bool{false, true} {
		desConstructors(t, toyGrid, driver.Options{Latency: 1, Wire: wire}, func(t *testing.T, d *driver.Sim, st stations) {
			use := chanset.SetOf(0, 3, 69)
			d.At(0, 0, func() {
				for _, k := range kinds {
					st[0].env.Send(message.Message{Kind: k, To: 63, Use: use})
				}
			})
			d.Run(100)
			stats := d.Stats().Messages
			if stats.Total != 4 {
				t.Fatalf("Total = %d", stats.Total)
			}
			if stats.ByKind[message.Request] != 2 || stats.ByKind[message.Response] != 1 || stats.ByKind[message.Release] != 1 {
				t.Fatalf("ByKind = %v", stats.ByKind)
			}
			var bytes uint64
			for _, k := range kinds {
				bytes += uint64(len(message.Encode(nil, message.Message{Kind: k, From: 0, To: 63, Use: use})))
			}
			if !wire {
				bytes = 0
			}
			if stats.Bytes != bytes {
				t.Fatalf("wire %v: Bytes = %d, want %d", wire, stats.Bytes, bytes)
			}
			if len(st[63].msgs) != 4 || !st[63].msgs[2].Use.Equal(use) {
				t.Fatalf("wire %v: delivered %+v", wire, st[63].msgs)
			}
		})
	}
}

// TestDESMulticastMatchesSends: a Multicast delivers the messages — To
// stamped, same order, same times, same Stats — that one Send per
// selected neighbour delivers, as one kernel record per destination
// shard and 64 neighbours; what needs per-destination treatment (a
// jittered due time, a codec round trip, an attachment to park) goes out
// as that many Sends, and is delivered all the same.
func TestDESMulticastMatchesSends(t *testing.T) {
	wide := hexgrid.Config{Shape: hexgrid.Rect, Width: 12, Height: 12, ReuseDistance: 5, Wrap: true}
	mask := []uint64{1<<0 | 1<<9 | 1<<63, 1 << 2}
	plain := message.Message{Kind: message.Acquisition, Acq: message.AcqNonSearch, Ch: 7, TS: lamport.Stamp{Time: 5, Node: 0}}
	withUse := plain
	withUse.Use = chanset.SetOf(2)

	type outcome struct {
		at    [][]sim.Time
		msgs  [][]message.Message
		stats transport.Stats
		pops  uint64
	}
	run := func(t *testing.T, opts driver.Options, m message.Message, multicast bool) (out [2]outcome, neighbors int) {
		i := 0
		desConstructors(t, wide, opts, func(t *testing.T, d *driver.Sim, st stations) {
			env := st[0].env
			neighbors = len(env.Neighbors())
			for _, mk := range [][]uint64{nil, mask} {
				if multicast {
					env.(alloc.Multicaster).Multicast(m, mk)
				} else {
					alloc.SendEach(env, m, mk)
				}
			}
			d.Run(100)
			o := &out[i]
			i++
			for _, s := range st {
				o.at, o.msgs = append(o.at, s.at), append(o.msgs, s.msgs)
			}
			o.stats, o.pops = d.Stats().Messages, d.Footprint().Pops
		})
		return out, neighbors
	}
	for _, c := range []struct {
		name string
		opts driver.Options
		m    message.Message
		fans bool // Multicast queues fan records
	}{
		{"plain", driver.Options{Latency: 10}, plain, true},
		{"jitter", driver.Options{Latency: 10, Jitter: 3, Seed: 1}, plain, false},
		{"wire", driver.Options{Latency: 10, Wire: true}, plain, false},
		{"use", driver.Options{Latency: 10}, withUse, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			sends, n := run(t, c.opts, c.m, false)
			fans, _ := run(t, c.opts, c.m, true)
			total := uint64(n + 4)
			if n <= 64 || n > 128 {
				t.Fatalf("the sender has %d neighbours; the masks want two words of them", n)
			}
			for i, name := range []string{"New", "NewParallel"} {
				s, f := sends[i], fans[i]
				if !reflect.DeepEqual(f.msgs, s.msgs) || !reflect.DeepEqual(f.at, s.at) {
					t.Errorf("%s: Multicast and Send deliver different messages or times", name)
				}
				if f.stats != s.stats || f.stats.Total != total || f.stats.ByKind[message.Acquisition] != total {
					t.Errorf("%s: Stats differ or miscount: multicast %+v, sends %+v", name, f.stats, s.stats)
				}
				if s.pops != total {
					t.Errorf("%s: %d records popped for %d sends", name, s.pops, total)
				}
				// One record per word, or per run of one shard's
				// neighbours within a word: 4 serially, a few times
				// that over three shards.
				if c.fans && (f.pops < 4 || f.pops > 4*4 || (i == 0 && f.pops != 4)) {
					t.Errorf("%s: %d records popped for the multicasts, want 4 (a few per shard)", name, f.pops)
				}
				if !c.fans && f.pops != total {
					t.Errorf("%s: %d records popped for a multicast that goes out by Send, want %d", name, f.pops, total)
				}
			}
		})
	}
}

// TestDESBadConfigPanics: a negative latency or jitter is refused at
// construction — a panic from New, which has no error to return, an
// error from NewParallel.
func TestDESBadConfigPanics(t *testing.T) {
	g := hexgrid.MustNew(toyGrid)
	assign := chanset.MustAssign(g, 70)
	for _, opts := range []driver.Options{{Latency: -1}, {Latency: 1, Jitter: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v): expected panic", opts)
				}
			}()
			driver.New(g, assign, make(stations, g.NumCells()), opts)
		}()
		if _, err := driver.NewParallel(g, assign, make(stations, g.NumCells()), opts); err == nil {
			t.Errorf("NewParallel(%+v): expected an error", opts)
		}
	}
}
