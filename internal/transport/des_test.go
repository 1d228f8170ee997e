package transport

import (
	"reflect"
	"testing"

	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/lamport"
	"repro/internal/message"
	"repro/internal/sim"
)

type recorder struct {
	at   []sim.Time
	msgs []message.Message
	e    *sim.Engine
}

func (r *recorder) Handle(m message.Message) {
	r.at = append(r.at, r.e.Now())
	r.msgs = append(r.msgs, m)
}

func TestDESDeliversAfterLatency(t *testing.T) {
	e := sim.NewEngine()
	tr := NewDES(e, 10, 0, nil)
	rec := &recorder{e: e}
	tr.Attach(2, rec)
	e.At(5, func() {
		tr.Send(message.Message{Kind: message.Release, From: 1, To: 2, Ch: 3})
	})
	e.Run(1000)
	if len(rec.msgs) != 1 {
		t.Fatalf("delivered %d messages", len(rec.msgs))
	}
	if rec.at[0] != 15 {
		t.Fatalf("delivered at %d, want 15", rec.at[0])
	}
	if rec.msgs[0].Ch != 3 {
		t.Fatalf("payload mangled: %+v", rec.msgs[0])
	}
}

func TestDESFIFOFixedLatency(t *testing.T) {
	e := sim.NewEngine()
	tr := NewDES(e, 7, 0, nil)
	rec := &recorder{e: e}
	tr.Attach(1, rec)
	e.At(0, func() {
		for i := 0; i < 20; i++ {
			tr.Send(message.Message{Kind: message.Request, From: 0, To: 1, Ch: chanset.Channel(i)})
		}
	})
	e.Run(1000)
	for i, m := range rec.msgs {
		if int(m.Ch) != i {
			t.Fatalf("FIFO violated: slot %d got ch %d", i, m.Ch)
		}
	}
}

func TestDESFIFOWithJitter(t *testing.T) {
	e := sim.NewEngine()
	tr := NewDES(e, 5, 9, sim.NewRand(123))
	rec := &recorder{e: e}
	tr.Attach(1, rec)
	const n = 200
	for i := 0; i < n; i++ {
		i := i
		e.At(sim.Time(i), func() {
			tr.Send(message.Message{Kind: message.Request, From: 0, To: 1, Ch: chanset.Channel(i)})
		})
	}
	e.Run(100000)
	if len(rec.msgs) != n {
		t.Fatalf("delivered %d of %d", len(rec.msgs), n)
	}
	for i, m := range rec.msgs {
		if int(m.Ch) != i {
			t.Fatalf("jittered FIFO violated at %d: ch %d", i, m.Ch)
		}
	}
	// Deliveries must never be earlier than base latency.
	for i, at := range rec.at {
		if at < sim.Time(i)+5 {
			t.Fatalf("message %d delivered at %d, before send+latency", i, at)
		}
	}
}

func TestDESJitterSpreadsDeliveries(t *testing.T) {
	e := sim.NewEngine()
	tr := NewDES(e, 5, 20, sim.NewRand(7))
	rec := &recorder{e: e}
	tr.Attach(1, rec)
	// Different links → jitter independent, so arrival times vary.
	for i := 0; i < 50; i++ {
		i := i
		e.At(0, func() {
			tr.Send(message.Message{Kind: message.Request, From: hexgrid.CellID(100 + i), To: 1})
		})
	}
	e.Run(1000)
	distinct := map[sim.Time]bool{}
	for _, at := range rec.at {
		distinct[at] = true
	}
	if len(distinct) < 5 {
		t.Fatalf("jitter produced only %d distinct arrival times", len(distinct))
	}
}

func TestDESStats(t *testing.T) {
	e := sim.NewEngine()
	tr := NewDES(e, 1, 0, nil)
	tr.Attach(1, HandlerFunc(func(message.Message) {}))
	kinds := []message.Kind{message.Request, message.Request, message.Response, message.Release}
	e.At(0, func() {
		for _, k := range kinds {
			tr.Send(message.Message{Kind: k, From: 0, To: 1})
		}
	})
	e.Run(100)
	st := tr.Stats()
	if st.Total != 4 {
		t.Fatalf("Total = %d", st.Total)
	}
	if st.ByKind[message.Request] != 2 || st.ByKind[message.Response] != 1 || st.ByKind[message.Release] != 1 {
		t.Fatalf("ByKind = %v", st.ByKind)
	}
}

func TestStatsAdd(t *testing.T) {
	var a, b Stats
	a.Total = 3
	a.ByKind[message.Request] = 3
	b.Total = 2
	b.ByKind[message.Release] = 2
	a.Add(b)
	if a.Total != 5 || a.ByKind[message.Request] != 3 || a.ByKind[message.Release] != 2 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

func TestDESSendToUnattachedPanics(t *testing.T) {
	e := sim.NewEngine()
	tr := NewDES(e, 1, 0, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Send(message.Message{To: 99})
}

func TestDESBadConfigPanics(t *testing.T) {
	e := sim.NewEngine()
	for _, fn := range []func(){
		func() { NewDES(e, -1, 0, nil) },
		func() { NewDES(e, 1, -1, nil) },
		func() { NewDES(e, 1, 5, nil) }, // jitter without rand
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestEventOfRoundTrips: every Message field survives the flat event
// record — the common ones inline, Use and Seq through the attachment,
// From as the event's origin — and a message with neither Use nor Seq
// needs no attachment at all.
func TestEventOfRoundTrips(t *testing.T) {
	e := sim.NewEngine()
	tr := NewDES(e, 3, 0, nil)
	rec := &recorder{e: e}
	tr.Attach(9, rec)
	msgs := []message.Message{
		// Ascending senders: same-tick deliveries run in origin order.
		{Kind: message.ChangeMode, From: 0, To: 9, Mode: message.ModeBorrowing},
		{Kind: message.Request, From: 4, To: 9, Req: message.ReqTransfer, Ch: 17, TS: lamport.Stamp{Time: 1 << 40, Node: 4}},
		{Kind: message.Response, From: 5, To: 9, Res: message.ResSearch, Ch: chanset.NoChannel,
			TS: lamport.Stamp{Time: 77, Node: 9}, Use: chanset.SetOf(0, 3, 69, 130)},
		{Kind: message.Acquisition, From: 6, To: 9, Acq: message.AcqSearch, Ch: 2, Seq: 12345},
		{Kind: message.Response, From: 7, To: 9, Res: message.ResStatus, Use: chanset.NewSet(70)},
	}
	for _, m := range msgs {
		ev, att := EventOf(m)
		if wantAtt := m.Seq != 0 || len(m.Use.Words()) > 0; wantAtt == (att.Seq == 0 && len(att.Words) == 0) {
			t.Errorf("%v: attachment presence = %v, want %v", m, !wantAtt, wantAtt)
		}
		if ev.Kind != sim.KindMessage {
			t.Errorf("%v: event kind %d", m, ev.Kind)
		}
		tr.Send(m)
	}
	e.Run(10)
	if len(rec.msgs) != len(msgs) {
		t.Fatalf("delivered %d of %d", len(rec.msgs), len(msgs))
	}
	for i, got := range rec.msgs {
		want := msgs[i]
		if !got.Use.Equal(want.Use) {
			t.Errorf("message %d: Use %v, want %v", i, got.Use, want.Use)
		}
		got.Use, want.Use = chanset.Set{}, chanset.Set{}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("message %d: got %+v, want %+v", i, got, want)
		}
	}
}

// listFanout resolves fan records against fixed neighbour lists.
type listFanout [][]hexgrid.CellID

func (l listFanout) Neighbor(origin int32, i int) int32 { return int32(l[origin][i]) }

// TestDESMulticastMatchesSends: a Multicast delivers the messages — To
// stamped, same order, same times, same Stats — that one Send per
// selected neighbour delivers, as one engine record per 64 neighbours;
// and it refuses (sending nothing) what needs per-destination treatment.
func TestDESMulticastMatchesSends(t *testing.T) {
	neighbors := make([]hexgrid.CellID, 70)
	for i := range neighbors {
		neighbors[i] = hexgrid.CellID(1 + i)
	}
	mask := []uint64{1<<0 | 1<<9 | 1<<63, 1 << 2}
	m := message.Message{Kind: message.Acquisition, Acq: message.AcqNonSearch, From: 0, Ch: 7, TS: lamport.Stamp{Time: 5, Node: 0}}

	run := func(multicast bool) (*recorder, Stats, uint64) {
		e := sim.NewEngine()
		e.SetFanout(listFanout{neighbors})
		tr := NewDES(e, 10, 0, nil)
		rec := &recorder{e: e}
		for _, c := range neighbors {
			tr.Attach(c, rec)
		}
		for _, mk := range [][]uint64{nil, mask} {
			if multicast {
				want := len(neighbors)
				if mk != nil {
					want = 4
				}
				if sent, ok := tr.Multicast(m, len(neighbors), mk); !ok || sent != want {
					t.Fatalf("Multicast = %d, %v; want %d, true", sent, ok, want)
				}
				continue
			}
			for i, to := range neighbors {
				if mk == nil || mk[i/64]>>(uint(i)%64)&1 != 0 {
					mm := m
					mm.To = to
					tr.Send(mm)
				}
			}
		}
		e.Run(100)
		return rec, tr.Stats(), e.Footprint().Pops
	}
	sends, sendStats, sendPops := run(false)
	fans, fanStats, fanPops := run(true)
	if len(sends.msgs) != 74 || !reflect.DeepEqual(fans.msgs, sends.msgs) || !reflect.DeepEqual(fans.at, sends.at) {
		t.Fatalf("Multicast delivered %d messages, Send %d, or they differ", len(fans.msgs), len(sends.msgs))
	}
	if fanStats != sendStats || fanStats.Total != 74 || fanStats.ByKind[message.Acquisition] != 74 {
		t.Fatalf("Stats differ: multicast %+v, sends %+v", fanStats, sendStats)
	}
	if sendPops != 74 || fanPops != 4 {
		t.Fatalf("%d records popped for the sends, %d for the multicasts; want 74 and 4", sendPops, fanPops)
	}

	e := sim.NewEngine()
	jittered := NewDES(e, 10, 3, sim.NewRand(1))
	wired := NewDES(sim.NewEngine(), 10, 0, nil)
	wired.EnableWire()
	plain := NewDES(sim.NewEngine(), 10, 0, nil)
	withUse := m
	withUse.Use = chanset.NewSet(70)
	withUse.Use.Add(2)
	for name, refused := range map[string]bool{
		"jitter": func() bool { _, ok := jittered.Multicast(m, 70, nil); return !ok }(),
		"wire":   func() bool { _, ok := wired.Multicast(m, 70, nil); return !ok }(),
		"use":    func() bool { _, ok := plain.Multicast(withUse, 70, nil); return !ok }(),
	} {
		if !refused {
			t.Errorf("%s: Multicast did not refuse a message that needs a Send per destination", name)
		}
	}
	if e.Pending() != 0 || jittered.Stats().Total+wired.Stats().Total+plain.Stats().Total != 0 {
		t.Error("a refused Multicast sent or counted something")
	}
}
