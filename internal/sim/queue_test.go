package sim

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestEventRecordIsFlat pins the queue element's size and checks it
// contains no pointers: heaps and mailboxes of it are noscan memory.
func TestEventRecordIsFlat(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 48 || EventSize != 48 {
		t.Fatalf("unsafe.Sizeof(Event{}) = %d, EventSize = %d; the record is meant to be 48 bytes (and must stay <= 64)", got, EventSize)
	}
	var pointerFree func(reflect.Type) bool
	pointerFree = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
			return true
		case reflect.Array:
			return pointerFree(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if !pointerFree(ty.Field(i).Type) {
					return false
				}
			}
			return true
		}
		return false
	}
	if !pointerFree(reflect.TypeOf(Event{})) {
		t.Fatal("Event contains a pointer-bearing field")
	}
}

// TestPackedKeyOrderMatchesThreeFieldOrder checks, on random keys with
// many equal times and including origin -1, that the two-word compare
// orders exactly as the old (at, origin, counter) compare did.
func TestPackedKeyOrderMatchesThreeFieldOrder(t *testing.T) {
	r := NewRand(42)
	type key struct {
		at  Time
		org int32
		cnt uint64
	}
	draw := func() key {
		k := key{at: Time(r.Intn(4)), org: int32(r.Intn(6)) - 1, cnt: uint64(r.Intn(5)) + 1}
		switch r.Intn(8) {
		case 0:
			k.org = MaxOrigins - 1
		case 1:
			k.cnt = maxCounter
		}
		return k
	}
	old := func(a, b key) bool {
		if a.at != b.at {
			return a.at < b.at
		}
		if a.org != b.org {
			return a.org < b.org
		}
		return a.cnt < b.cnt
	}
	for i := 0; i < 200_000; i++ {
		a, b := draw(), draw()
		ea := Event{At: a.at, key: packKey(a.org, a.cnt)}
		eb := Event{At: b.at, key: packKey(b.org, b.cnt)}
		if got, want := less(&ea, &eb), old(a, b); got != want {
			t.Fatalf("less(%+v, %+v) = %v, three-field order says %v", a, b, got, want)
		}
		if ea.Origin() != a.org {
			t.Fatalf("Origin() = %d after packing origin %d", ea.Origin(), a.org)
		}
	}
}

// TestPackedKeyOverflowPanics checks both width limits fail with a
// message naming the offending origin and counter.
func TestPackedKeyOverflowPanics(t *testing.T) {
	for _, c := range []struct {
		org  int32
		cnt  uint64
		want []string
	}{
		{MaxOrigins, 7, []string{"origin 16777215", "counter 7"}},
		{3, maxCounter + 1, []string{"origin 3", "counter 1099511627776"}},
		{-2, 1, []string{"origin -2"}},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				for _, w := range c.want {
					if !strings.Contains(msg, w) {
						t.Errorf("packKey(%d, %d) panic %q does not mention %q", c.org, c.cnt, msg, w)
					}
				}
			}()
			packKey(c.org, c.cnt)
		}()
	}
	// The limits themselves are legal.
	packKey(MaxOrigins-1, maxCounter)
	// And the engine surfaces the panic from its scheduling calls.
	defer func() {
		if recover() == nil {
			t.Error("AtOrigin with an origin past the key width did not panic")
		}
	}()
	NewEngine().AtOrigin(0, MaxOrigins, func() {})
}

// TestOriginLimitFailsAtConstruction: a cell count past the packed
// key's origin width is refused when the kernel is built — a descriptive
// error from CheckOrigins, which NewShards panics with — not at the first
// event of the first too-high cell.
func TestOriginLimitFailsAtConstruction(t *testing.T) {
	if err := CheckOrigins(MaxOrigins); err != nil {
		t.Fatalf("CheckOrigins(MaxOrigins) = %v", err)
	}
	err := CheckOrigins(MaxOrigins + 1)
	if err == nil || !strings.Contains(err.Error(), "16777216 cells") || !strings.Contains(err.Error(), "16777215 origins") {
		t.Fatalf("CheckOrigins(MaxOrigins+1) = %v", err)
	}
	defer func() {
		if msg, _ := recover().(string); msg != err.Error() {
			t.Errorf("NewShards with %d origins: panic %q, want %q", MaxOrigins+1, msg, err)
		}
	}()
	NewShards(4, 10, MaxOrigins+1)
}

// TestSideTableSlotsAreRecycled runs 10^6 schedule/execute cycles of
// func and attachment-carrying events and checks the side table never
// grows past the in-flight count — executed events return their slots —
// and that DiscardPending returns the slots of the events it drops.
func TestSideTableSlotsAreRecycled(t *testing.T) {
	e := NewEngine()
	var got Attachment
	e.Handle(KindMessage, handlerFunc(func(_ Event, att Attachment) { got = att }))
	words := []uint64{5}
	const inFlight = 8
	for i := 0; i < inFlight; i++ {
		e.AtOrigin(Time(i), 1, func() {})
	}
	for i := 0; i < 1_000_000; i++ {
		if i%2 == 0 {
			e.AtOrigin(e.Now()+inFlight, 1, func() {})
		} else {
			e.Post(e.Now()+inFlight, 1, Event{Kind: KindMessage}, Attachment{Words: words, Seq: uint64(i)})
		}
		e.Step()
	}
	if got.Seq == 0 || len(got.Words) != 1 {
		t.Fatalf("attachment did not reach the handler: %+v", got)
	}
	if nf, na := len(e.q().fns.slots), e.q().atts.n; nf > inFlight+1 || na > inFlight+1 {
		t.Fatalf("side tables grew to %d func and %d attachment slots with %d events in flight", nf, na, inFlight)
	}
	if dropped := e.DiscardPending(); dropped != inFlight {
		t.Fatalf("DiscardPending dropped %d events, want %d", dropped, inFlight)
	}
	if n := len(e.q().fns.slots) + e.q().atts.n + len(e.q().fns.free) + e.q().atts.freeSlots(); n != 0 {
		t.Fatalf("DiscardPending left %d side entries and free slots", n)
	}
	for i := 0; i < inFlight; i++ {
		e.At(e.Now()+1, func() {})
	}
	if n := len(e.q().fns.slots); n != inFlight {
		t.Fatalf("side table has %d slots after rescheduling %d events", n, inFlight)
	}

	// The sharded kernel: slots of boxed cross events live in the route
	// and move to the destination at the flush; neither side may grow.
	k := NewShards(2, 5, 2)
	var hop func(s int)
	hop = func(s int) { k.Cross(s, 1-s, k.Now(s)+5, int32(s), func() { hop(1 - s) }) }
	hop(0)
	k.Run(1, 500_000)
	for s := 0; s < 2; s++ {
		sh := &k.shards[s]
		if len(sh.q.fns.slots) > 1 || len(sh.routes[0].fns) > 1 {
			t.Fatalf("shard %d: side table %d, route func list %d after %d cross events",
				s, len(sh.q.fns.slots), len(sh.routes[0].fns), k.Executed())
		}
	}
	if k.DiscardPending() != 1 {
		t.Fatal("one cross event should have been pending")
	}
	for s := 0; s < 2; s++ {
		if sh := &k.shards[s]; len(sh.q.fns.slots) != 0 || len(sh.routes[0].fns) != 0 {
			t.Fatalf("shard %d: DiscardPending left side entries behind", s)
		}
	}
}

// freeSlots walks the arena's free list and returns its length.
func (a *attArena) freeSlots() int {
	n := 0
	for ref := a.free; ref != 0; ref = uint32(a.slot(ref)[0]) {
		n++
	}
	return n
}

// handlerFunc adapts a function to Handler.
type handlerFunc func(Event, Attachment)

func (f handlerFunc) HandleEvent(ev Event, att Attachment) { f(ev, att) }

// TestTypedEventIsAllocationFree: posting and executing a typed event
// allocates nothing; an unregistered kind fails loudly.
func TestTypedEventIsAllocationFree(t *testing.T) {
	e := NewEngine()
	e.Reserve(64)
	n := 0
	e.Handle(KindRelease, handlerFunc(func(ev Event, _ Attachment) { n += int(ev.Ch) }))
	if allocs := testing.AllocsPerRun(1000, func() {
		e.Post(e.Now()+1, 3, Event{Kind: KindRelease, Cell: 3, Ch: 1}, Attachment{})
		e.Step()
	}); allocs != 0 {
		t.Errorf("Post+Step allocates %.1f objects per typed event, want 0", allocs)
	}
	if n != 1001 {
		t.Fatalf("handler ran %d times", n)
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "no handler registered") {
			t.Errorf("unregistered kind: panic %q", msg)
		}
	}()
	e.Post(e.Now(), 0, Event{Kind: KindDepart}, Attachment{})
	e.Step()
}

// TestAtOriginAscendingOriginsGrowsGeometrically: scheduling one event
// from each of N ascending origins — what traffic.Run's first-arrival
// loop does — may reallocate the per-origin counters O(log N) times,
// not N times.
func TestAtOriginAscendingOriginsGrowsGeometrically(t *testing.T) {
	const n = 1 << 15
	e := NewEngine()
	e.Reserve(n)
	fn := func() {}
	allocs := testing.AllocsPerRun(1, func() {
		for o := int32(0); o < n; o++ {
			e.AtOrigin(1, o, fn)
		}
		e.DiscardPending()
		e.cnt, e.last = nil, nil
	})
	// AllocsPerRun runs the body twice (one warm-up). Counter growth is
	// 1.25x-2x per step: well under 100 reallocations for 32768 origins;
	// the side table grows the same way on the first pass.
	if allocs > 200 {
		t.Fatalf("%d ascending origins cost %.0f allocations; the counter slice is being regrown per origin", n, allocs)
	}
}

// wordsOf is the attachment a lifetime-test event with tag x carries.
func wordsOf(x int64) []uint64 { return []uint64{uint64(x), ^uint64(x), uint64(x) * 3} }

func checkWords(t *testing.T, where string, ev Event, att Attachment) {
	t.Helper()
	want := wordsOf(ev.T)
	if len(att.Words) != len(want) || att.Words[0] != want[0] || att.Words[1] != want[1] || att.Words[2] != want[2] || att.Seq != uint64(ev.T) {
		t.Errorf("%s: event %d read attachment %v seq %d, want %v", where, ev.T, att.Words, att.Seq, want) // not Fatal: shard handlers run off the test goroutine
	}
}

// TestAttachmentSlotOutlivesHandler: an attachment's words are a view of
// a recycled side-table slot, released only after the handler returns.
// A handler that posts new attachment-carrying events while it handles
// one — what a station does when a Use snapshot makes it answer with its
// own — must still read its own snapshot intact afterwards, and every
// posted snapshot must arrive intact: on Engine, on Shards within a
// shard, and across a shard boundary through the route arena and
// outRoute.merge. The poster reuses (and scribbles over) one buffer, as
// a station's live Use_i is, so any table that kept the caller's slice
// instead of copying fails too. A slot several events share lives until
// the last of them has been handled.
func TestAttachmentSlotOutlivesHandler(t *testing.T) {
	const events = 20_000

	t.Run("Engine", func(t *testing.T) {
		e := NewEngine()
		live := make([]uint64, 3)
		next := int64(0)
		post := func() {
			next++
			copy(live, wordsOf(next))
			e.Post(e.Now()+Time(1+next%3), int32(next%5), Event{Kind: KindMessage, T: next}, Attachment{Words: live, Seq: uint64(next)})
			live[0], live[1], live[2] = 0xdead, 0xdead, 0xdead // the view dies with the call
		}
		handled := 0
		e.Handle(KindMessage, handlerFunc(func(ev Event, att Attachment) {
			handled++
			checkWords(t, "before posting", ev, att)
			if next < events {
				post()
				if next-int64(handled) < 16 { // keep a few in flight, not 2^n
					post() // one lands in a fresh slot, one would take ours were it free
				}
			}
			checkWords(t, "after posting", ev, att)
		}))
		post()
		if !e.Drain(10 * events) {
			t.Fatal("did not drain")
		}
		if handled < events {
			t.Fatalf("handled %d events, want at least %d", handled, events)
		}
		if n := e.q().atts.n; n > 64 {
			t.Fatalf("attachment table grew to %d slots", n)
		}
	})

	t.Run("Shards", func(t *testing.T) {
		const nShards, T = 4, Time(5)
		k := NewShards(nShards, T, nShards)
		// One poster state per shard: handlers of different shards run on
		// different goroutines.
		type poster struct {
			live    []uint64
			next    int64
			posted  int
			handled int
			_       [64]byte
		}
		ps := make([]poster, nShards)
		for s := range ps {
			ps[s] = poster{live: make([]uint64, 3), next: int64(s) << 32}
		}
		post := func(s, dst int) {
			p := &ps[s]
			p.next++
			p.posted++
			copy(p.live, wordsOf(p.next))
			ev, att := Event{Kind: KindMessage, Cell: int32(dst), T: p.next}, Attachment{Words: p.live, Seq: uint64(p.next)}
			k.PostCross(s, dst, k.Now(s)+T+Time(p.next%3), int32(s), ev, att)
			p.live[0], p.live[1], p.live[2] = 0xdead, 0xdead, 0xdead
		}
		k.Handle(KindMessage, handlerFunc(func(ev Event, att Attachment) {
			s := int(ev.Cell)
			p := &ps[s]
			p.handled++
			checkWords(t, "before posting", ev, att)
			if p.handled < events/nShards {
				post(s, (s+1)%nShards) // across the boundary: route arena, then merge
				if p.posted-p.handled < 16 {
					post(s, s) // same shard: straight into this shard's table
				}
			}
			checkWords(t, "after posting", ev, att)
		}))
		for s := 0; s < nShards; s++ {
			post(s, s)
		}
		if !k.Drain(2, 100*events) {
			t.Fatal("did not drain")
		}
		for s := range ps {
			if ps[s].handled < events/nShards {
				t.Fatalf("shard %d handled %d events", s, ps[s].handled)
			}
			q := &k.shards[s].q
			if free := q.atts.freeSlots(); free != q.atts.n {
				t.Fatalf("shard %d: %d of %d attachment slots still held after the drain", s, q.atts.n-free, q.atts.n)
			}
		}
	})

	// One snapshot posted three times is one slot under three events. It
	// must stay readable, and stay put, until the last of them has been
	// handled — after the earlier sharers were delivered, and while each
	// handler parks new attachments that would land in the slot were it
	// freed a delivery too soon.
	t.Run("Shared", func(t *testing.T) {
		const shared = 7 // the tag (words and Seq) of the repeated snapshot
		live := make([]uint64, 3)
		att := func(x int64) Attachment {
			copy(live, wordsOf(x))
			return Attachment{Words: live, Seq: uint64(x)}
		}
		scribble := func() { live[0], live[1], live[2] = 0xdead, 0xdead, 0xdead }

		e := NewEngine()
		next, handled := int64(100), 0
		e.Handle(KindMessage, handlerFunc(func(ev Event, a Attachment) {
			handled++
			checkWords(t, "before posting", ev, a)
			if ev.T == shared {
				for i := 0; i < 2; i++ {
					next++
					e.Post(e.Now()+10, 1, Event{Kind: KindMessage, T: next}, att(next))
					scribble()
				}
			}
			checkWords(t, "after posting", ev, a)
		}))
		for at := Time(1); at <= 3; at++ {
			e.Post(at, 0, Event{Kind: KindMessage, T: shared}, att(shared))
			scribble()
		}
		if e.q().atts.n != 1 {
			t.Fatalf("three identical posts took %d slots", e.q().atts.n)
		}
		if !e.Drain(100) || handled != 3+6 {
			t.Fatalf("handled %d events", handled)
		}
		if f := e.Footprint(); f.AttShared != 2 || e.q().atts.n != 1+6 || e.q().atts.freeSlots() != e.q().atts.n {
			t.Fatalf("%d shared, %d slots, %d free after the drain", f.AttShared, e.q().atts.n, e.q().atts.freeSlots())
		}

		// Across a boundary: one mailbox entry, parked once by the merge;
		// the handlers on the far side post within their own shard.
		k := NewShards(2, 5, 2)
		next, handled = 100, 0
		k.Handle(KindMessage, handlerFunc(func(ev Event, a Attachment) {
			handled++
			checkWords(t, "before posting", ev, a)
			if ev.T == shared {
				for i := 0; i < 2; i++ {
					next++
					k.Post(1, k.Now(1)+10, 1, Event{Kind: KindMessage, T: next}, att(next))
					scribble()
				}
			}
			checkWords(t, "after posting", ev, a)
		}))
		for at := Time(5); at <= 7; at++ {
			k.PostCross(0, 1, at, 0, Event{Kind: KindMessage, T: shared}, att(shared))
			scribble()
		}
		if rt := k.shards[0].findRoute(1); len(rt.words) != attHeader+3 || rt.n != 3 {
			t.Fatalf("three identical posts boxed %d words under %d records", len(rt.words), rt.n)
		}
		k.Run(1, 5)
		if q := &k.shards[1].q; q.atts.n != 1+2 {
			t.Fatalf("%d slots at the destination after the merge and the first delivery, want the shared one and that handler's two", q.atts.n)
		}
		if !k.Drain(1, 100) || handled != 3+6 {
			t.Fatalf("handled %d events", handled)
		}
		if q := &k.shards[1].q; q.atts.freeSlots() != q.atts.n {
			t.Fatalf("%d of %d slots still held after the drain", q.atts.n-q.atts.freeSlots(), q.atts.n)
		}
	})
}

// TestAttachmentRestride: a wider set than any posted before re-strides
// the arena without disturbing the parked ones.
func TestAttachmentRestride(t *testing.T) {
	e := NewEngine()
	var got [][]uint64
	e.Handle(KindMessage, handlerFunc(func(_ Event, att Attachment) {
		got = append(got, append([]uint64(nil), att.Words...))
	}))
	e.Post(1, 0, Event{Kind: KindMessage}, Attachment{Words: []uint64{1}})
	e.Post(2, 0, Event{Kind: KindMessage}, Attachment{Words: []uint64{2, 3}})
	e.Post(3, 0, Event{Kind: KindMessage}, Attachment{Seq: 9})
	e.Post(4, 0, Event{Kind: KindMessage}, Attachment{Words: []uint64{4, 5, 6, 7}})
	e.Post(5, 0, Event{Kind: KindMessage}, Attachment{Words: []uint64{8}})
	e.Drain(10)
	want := [][]uint64{{1}, {2, 3}, nil, {4, 5, 6, 7}, {8}}
	if len(got) != len(want) {
		t.Fatalf("handled %d events", len(got))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("event %d: words %v, want %v", i, got[i], want[i])
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("event %d: words %v, want %v", i, got[i], want[i])
			}
		}
	}
}
