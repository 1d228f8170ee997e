package core

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/lamport"
	"repro/internal/message"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestMalformedMessagesAreCountedDrops: message.Decode accepts any int32
// channel, any sender id and any Use width, so whatever a TCP frame can
// carry reaches Handle. Each malformed shape, on each of the five
// message kinds, must be dropped before it touches the station — no
// reply, no state change, no Lamport tick, and above all no panic and no
// write into another neighbor's slab words — and counted three ways:
// the protocol counter, the adca_bad_messages_total instrument and a
// journal record.
func TestMalformedMessagesAreCountedDrops(t *testing.T) {
	const channels, cell = 70, hexgrid.CellID(40)
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 9, Height: 9, ReuseDistance: 2})
	assign := chanset.MustAssign(g, channels)
	f, err := NewFactory(g, assign, DefaultParams(10))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	var journal bytes.Buffer
	j := obs.NewJournal(&journal)
	f.Instrument(obs.NewProtocol(reg, j))
	a := f.New(cell).(*Adaptive)
	env := &stubEnv{id: cell, neighbors: g.Interference(cell), rand: sim.NewRand(1)}
	a.Start(env)

	nbr := a.neighbors()[3]
	if a.nbrIdx(0) >= 0 {
		t.Fatal("cell 0 was meant to be outside cell 40's interference region")
	}
	// Some honest state first, so "unchanged" means something: a held
	// channel, a borrowing neighbor, a neighbor's channel, a grant.
	a.Request(1)
	a.Handle(message.Message{Kind: message.ChangeMode, From: nbr, To: cell, Mode: message.ModeBorrowing})
	a.Handle(message.Message{Kind: message.Acquisition, From: a.neighbors()[5], To: cell, Ch: 33})
	a.Handle(message.Message{Kind: message.Request, Req: message.ReqUpdate, From: nbr, To: cell, Ch: 34,
		TS: lamport.Stamp{Time: 3, Node: int32(nbr)}})
	env.take()

	seen := map[message.Kind]bool{}
	var want uint64
	for _, frame := range malformedFrames(channels, cell, nbr) {
		m := frame.m
		seen[m.Kind] = true
		slab, u, grants, clock, mode, waiting := slices.Clone(a.slab), slices.Clone(a.blk.u), slices.Clone(a.ledger()), a.clock, a.mode, a.waiting
		a.Handle(m)
		want++
		if sent := env.take(); len(sent) != 0 {
			t.Errorf("%s: answered with %v", frame.name, sent)
		}
		if !slices.Equal(slab, a.slab) || !slices.Equal(u, a.blk.u) || !slices.Equal(grants, a.ledger()) || clock != a.clock || mode != a.mode || waiting != a.waiting {
			t.Errorf("%s: station state changed", frame.name)
		}
		if a.counters.BadMessages != want {
			t.Errorf("%s: BadMessages = %d, want %d", frame.name, a.counters.BadMessages, want)
		}
	}
	if len(seen) != 5 {
		t.Fatalf("table covers %d message kinds, want all 5", len(seen))
	}
	if got := reg.Snapshot()["adca_bad_messages_total"]; got != float64(want) {
		t.Errorf("adca_bad_messages_total = %v, want %d", got, want)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(journal.String(), `"bad_message"`); got != int(want) {
		t.Errorf("journal holds %d bad_message records, want %d", got, want)
	}

	// The well-formed edge cases stay accepted: NoChannel where a kind
	// carries no channel, a Use set narrower than the spectrum, the last
	// channel of the spectrum.
	narrow := chanset.NewSet(64)
	narrow.Add(7)
	for _, m := range []message.Message{
		{Kind: message.Acquisition, Acq: message.AcqSearch, Ch: chanset.NoChannel},
		{Kind: message.Response, Res: message.ResStatus, Use: narrow},
		{Kind: message.Release, Ch: channels - 1},
	} {
		m.From, m.To = nbr, cell
		a.Handle(m)
	}
	if a.counters.BadMessages != want {
		t.Errorf("well-formed edge cases were counted as bad: %d, want %d", a.counters.BadMessages, want)
	}
	if !a.uOf(3).Contains(7) {
		t.Error("a narrower Use snapshot was not applied")
	}
}

// malformedFrame is one row of the malformed-message table.
type malformedFrame struct {
	name string
	m    message.Message
}

// malformedFrames is every malformed shape applied to each of the five
// message kinds, as sent by nbr to cell on a spectrum of channels (< 128):
// the table TestMalformedMessagesAreCountedDrops checks and the seed
// corpus of FuzzStationDropsMalformed.
func malformedFrames(channels int, cell, nbr hexgrid.CellID) []malformedFrame {
	wide := chanset.NewSet(3 * 64) // three words on a two-word spectrum
	wide.Add(5)
	stray := chanset.NewSet(channels) // two words, one member past the spectrum
	stray.Add(100)
	shapes := []struct {
		name   string
		mutate func(*message.Message)
	}{
		{"channel past the spectrum", func(m *message.Message) { m.Ch = 99 }},
		{"channel far past the slab", func(m *message.Message) { m.Ch = 1 << 30 }},
		{"channel below NoChannel", func(m *message.Message) { m.Ch = -7 }},
		{"sender not a neighbor", func(m *message.Message) { m.From = 0 }},
		{"sender is the cell itself", func(m *message.Message) { m.From = cell }},
		{"sender id negative", func(m *message.Message) { m.From = -3 }},
		{"Use wider than the spectrum", func(m *message.Message) { m.Use = wide }},
		{"Use member outside the spectrum", func(m *message.Message) { m.Use = stray }},
	}
	kinds := []struct {
		name string
		m    message.Message
	}{
		{"update request", message.Message{Kind: message.Request, Req: message.ReqUpdate, Ch: 12}},
		{"search request", message.Message{Kind: message.Request, Req: message.ReqSearch, Ch: chanset.NoChannel}},
		{"grant", message.Message{Kind: message.Response, Res: message.ResGrant, Ch: 12}},
		{"search response", message.Message{Kind: message.Response, Res: message.ResSearch, Ch: chanset.NoChannel}},
		{"status response", message.Message{Kind: message.Response, Res: message.ResStatus, Ch: chanset.NoChannel}},
		{"change mode", message.Message{Kind: message.ChangeMode, Mode: message.ModeBorrowing}},
		{"acquisition", message.Message{Kind: message.Acquisition, Acq: message.AcqNonSearch, Ch: 12}},
		{"search acquisition", message.Message{Kind: message.Acquisition, Acq: message.AcqSearch, Ch: chanset.NoChannel}},
		{"release", message.Message{Kind: message.Release, Ch: 12}},
	}
	var out []malformedFrame
	for _, base := range kinds {
		for _, shape := range shapes {
			m := base.m
			m.From, m.To = nbr, cell
			m.TS = lamport.Stamp{Time: 1 << 40, Node: int32(nbr)} // would jump the clock if witnessed
			shape.mutate(&m)
			out = append(out, malformedFrame{base.name + ", " + shape.name, m})
		}
	}
	return out
}

// TestMalformedUseCannotReachLedger: the grant ledger is resolved by the
// snapshots a neighbor sends (replaceU), and it no longer lives in slab
// words a width check protects by construction. A Use set wider than the
// spectrum, or with a member outside it, that also names the granted
// channel must still be dropped whole: the grant stays pending and the
// channel stays interfered, so the D9 race stays closed against a
// malformed frame. The same channel in a well-formed snapshot resolves it.
func TestMalformedUseCannotReachLedger(t *testing.T) {
	a, env, _ := stationAt(t, hexgrid.Config{Shape: hexgrid.Rect, Width: 9, Height: 9, ReuseDistance: 2}, 70, 40)
	k := 3
	nbr := a.neighbors()[k]
	a.Handle(message.Message{Kind: message.Request, Req: message.ReqUpdate, From: nbr, To: 40, Ch: 34,
		TS: lamport.Stamp{Time: 3, Node: int32(nbr)}})
	env.take()
	if a.granted(k, 34) < 0 {
		t.Fatal("the grant was not recorded")
	}
	wide := chanset.NewSet(3 * 64)
	wide.Add(34)
	wide.Add(150)
	stray := chanset.NewSet(70)
	stray.Add(34)
	stray.Add(100)
	for _, res := range []message.ResType{message.ResStatus, message.ResSearch} {
		for name, use := range map[string]chanset.Set{"wider than the spectrum": wide, "member outside the spectrum": stray} {
			a.Handle(message.Message{Kind: message.Response, Res: res, From: nbr, To: 40, Ch: chanset.NoChannel, Use: use})
			if a.granted(k, 34) < 0 || len(a.ledger()) != 1 || !a.view(setInter).Contains(34) || !a.uOf(k).Contains(34) {
				t.Fatalf("a Use %s resolved the pending grant: ledger %v, I_i %v", name, a.ledger(), a.view(setInter))
			}
		}
	}
	if a.counters.BadMessages != 4 {
		t.Fatalf("BadMessages = %d, want 4", a.counters.BadMessages)
	}
	a.Handle(message.Message{Kind: message.Response, Res: message.ResStatus, From: nbr, To: 40, Ch: chanset.NoChannel, Use: chanset.SetOf(34)})
	if len(a.ledger()) != 0 || !a.uOf(k).Contains(34) {
		t.Fatalf("a well-formed snapshot showing the channel left ledger %v, U_j %v", a.ledger(), a.uOf(k))
	}
}
