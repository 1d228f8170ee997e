package core

import (
	"bytes"
	"encoding/json"
	"maps"
	"slices"
	"testing"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/lamport"
	"repro/internal/message"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Tests of what core writes to the journal: each record's type, cell and
// fields, for the kinds a run emits only off its common path.

// journaled starts cell 0 of the seven-cell patch in which every pair of
// cells interferes (14 channels, two primaries a cell) behind a journal,
// and returns it with a function that flushes the journal and parses its
// records.
func journaled(t *testing.T, p Params) (*Adaptive, *stubEnv, func() []map[string]any) {
	t.Helper()
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Hexagon, Radius: 1, ReuseDistance: 2})
	f, err := NewFactory(g, chanset.MustAssign(g, 14), p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	j := obs.NewJournal(&buf)
	f.Journal = j
	a := f.New(0).(*Adaptive)
	env := &stubEnv{id: 0, neighbors: g.Interference(0), rand: sim.NewRand(1)}
	a.Start(env)
	return a, env, func() []map[string]any {
		t.Helper()
		if err := j.Flush(); err != nil {
			t.Fatal(err)
		}
		var recs []map[string]any
		for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			var r map[string]any
			if err := json.Unmarshal(line, &r); err != nil {
				t.Fatalf("journal line %q: %v", line, err)
			}
			recs = append(recs, r)
		}
		return recs
	}
}

// wantRecord requires exactly one record of the given type in recs, with
// exactly the given time, cell and fields.
func wantRecord(t *testing.T, recs []map[string]any, typ string, tick, cell int, fields map[string]any) {
	t.Helper()
	want := map[string]any{"t": float64(tick), "type": typ, "cell": float64(cell)}
	for k, v := range fields {
		if n, ok := v.(int); ok {
			v = float64(n)
		}
		want[k] = v
	}
	var got []map[string]any
	for _, r := range recs {
		if r["type"] == typ {
			got = append(got, r)
		}
	}
	if len(got) != 1 || !maps.Equal(got[0], want) {
		t.Fatalf("%q records %v, want one: %v", typ, got, want)
	}
}

// exhaust takes both primaries of the station, which turns it to
// borrowing mode, then requests a third channel, and returns what the
// station sent for that request.
func exhaust(a *Adaptive, env *stubEnv) []message.Message {
	for i := range a.primary().Len() {
		a.Request(alloc.RequestID(i + 1))
	}
	env.take()
	a.Request(3)
	return env.take()
}

// TestJournalStall: a request parked behind a search the station
// answered is a "stall" record with waiting_i and the request id.
func TestJournalStall(t *testing.T) {
	a, env, records := journaled(t, DefaultParams(10))
	env.now = 40
	nb := a.neighbors()[2]
	a.Handle(message.Message{Kind: message.Request, Req: message.ReqSearch, From: nb, To: 0,
		TS: lamport.Stamp{Time: 1, Node: int32(nb)}})
	a.Request(7)
	wantRecord(t, records(), "stall", 40, 0, map[string]any{"waiting": 1, "req": 7})
}

// TestJournalSearchDeferDeny: with α = 0 a borrowing station goes
// straight to a search ("search", round 1); newer requests that arrive
// meanwhile are deferred ("defer", one update and one search, with the
// sender and the queue's depth); and a search that finds every channel
// used around it is a "deny" of the request.
func TestJournalSearchDeferDeny(t *testing.T) {
	p := DefaultParams(10)
	p.Alpha = 0
	a, env, records := journaled(t, p)
	env.now = 50
	full := chanset.NewSet(14)
	for ch := range chanset.Channel(14) {
		full.Add(ch)
	}
	search := lastKind(exhaust(a, env), message.Request)
	if search == nil || search.Req != message.ReqSearch || a.mode != ModeBorrowSearch {
		t.Fatalf("no search for the third request: sent %v, mode %d", search, a.mode)
	}
	newer := lamport.Stamp{Time: search.TS.Time + 5, Node: 9}
	nbrs := a.neighbors()
	env.now = 60
	a.Handle(message.Message{Kind: message.Request, Req: message.ReqUpdate, From: nbrs[1], To: 0, Ch: 13, TS: newer})
	env.now = 61
	a.Handle(message.Message{Kind: message.Request, Req: message.ReqSearch, From: nbrs[4], To: 0, TS: newer})
	env.now = 70
	for _, nb := range nbrs {
		a.Handle(message.Message{Kind: message.Response, Res: message.ResSearch, From: nb, To: 0, TS: search.TS, Use: full})
	}
	recs := records()
	wantRecord(t, recs, "search", 50, 0, map[string]any{"round": 1})
	wantRecord(t, recs, "deny", 70, 0, map[string]any{"req": 3})
	var deferred []map[string]any
	for _, r := range recs {
		if r["type"] == "defer" {
			deferred = append(deferred, r)
		}
	}
	want := []map[string]any{
		{"t": 60.0, "type": "defer", "cell": 0.0, "req_kind": "update", "from": float64(nbrs[1]), "depth": 1.0},
		{"t": 61.0, "type": "defer", "cell": 0.0, "req_kind": "search", "from": float64(nbrs[4]), "depth": 2.0},
	}
	if !slices.EqualFunc(deferred, want, maps.Equal) {
		t.Fatalf("defer records %v, want %v", deferred, want)
	}
}

// TestJournalBorrowRejected: an update attempt one neighbor rejects is a
// "borrow_rejected" record with the channel and the round.
func TestJournalBorrowRejected(t *testing.T) {
	a, env, records := journaled(t, DefaultParams(10))
	env.now = 30
	update := lastKind(exhaust(a, env), message.Request)
	if update == nil || update.Req != message.ReqUpdate {
		t.Fatalf("no update attempt for the third request: sent %v", update)
	}
	env.now = 45
	for i, nb := range a.neighbors() {
		res := message.ResGrant
		if i == 3 {
			res = message.ResReject
		}
		a.Handle(message.Message{Kind: message.Response, Res: res, From: nb, To: 0, Ch: update.Ch, TS: update.TS})
	}
	wantRecord(t, records(), "borrow_rejected", 45, 0, map[string]any{"ch": int(update.Ch), "round": 1})
}

// TestJournalBadReleaseAndMessage: releasing a channel the station does
// not hold is a "bad_release" with the channel; a message from a cell
// outside IN_i is a "bad_message" with its kind, sender, channel and Use
// width.
func TestJournalBadReleaseAndMessage(t *testing.T) {
	a, env, records := journaled(t, DefaultParams(10))
	env.now = 11
	if err := a.Release(5); err == nil {
		t.Fatal("releasing a channel the station does not hold succeeded")
	}
	env.now = 12
	use := chanset.NewSet(14)
	use.Add(2)
	a.Handle(message.Message{Kind: message.Acquisition, From: 99, To: 0, Ch: 4, Use: use})
	recs := records()
	wantRecord(t, recs, "bad_release", 11, 0, map[string]any{"ch": 5})
	wantRecord(t, recs, "bad_message", 12, 0, map[string]any{
		"kind": message.Acquisition.String(), "from": 99, "ch": 4, "use_words": len(use.Words())})
}
