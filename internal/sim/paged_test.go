package sim

import (
	"runtime"
	"testing"

	"repro/internal/raceflag"
)

// Budgets of the paged tables, of fan records and of shared attachments.
// Allocation counts are meaningless under -race (the detector
// allocates), so CI runs these in its non-race step; `go test -race`
// skips them.

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
}

// allocated runs f and returns the heap objects and bytes it allocated.
func allocated(f func()) (objects, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestPagedTablesAllocationBudget: growing a table to N slots allocates
// about one object per page and within 5 % of the bytes it ends up
// holding — an append-grown slice allocates some 3.3 times that — for
// the event heap and for the attachment arena.
func TestPagedTablesAllocationBudget(t *testing.T) {
	skipUnderRace(t)
	const slack = 64 // the first page's doublings and the page table's own growth

	const events = 1 << 20
	q := queue{pool: new(pagePool)}
	objects, bytes := allocated(func() {
		for i := 0; i < events; i++ {
			q.push(Event{At: Time(i % 4096), key: uint64(i)})
		}
	})
	if pages := uint64(events/pageSlots + 1); objects > pages+slack {
		t.Errorf("pushing %d events allocated %d objects, want at most %d (one per page) + %d", events, objects, pages, slack)
	}
	if limit := events * EventSize * 105 / 100; bytes > limit {
		t.Errorf("pushing %d events allocated %d bytes, %.2f times the %d they occupy; want at most 1.05", events, bytes, float64(bytes)/float64(events*EventSize), events*EventSize)
	}
	var f Footprint
	q.addTo(&f)
	if f.HeapBytes > bytes || f.HeapPages != events/pageSlots+1 || f.PeakRecords != events {
		t.Errorf("footprint %+v after %d pushes that allocated %d bytes", f, events, bytes)
	}
	for last, i := Time(0), 0; i < events; i++ {
		if ev := q.pop(); ev.At < last {
			t.Fatalf("pop %d is out of order", i)
		} else {
			last = ev.At
		}
	}

	const parked = 1 << 18
	words := []uint64{1, 2}
	slotBytes := uint64(8 * (attHeader + len(words)))
	var a attArena
	objects, bytes = allocated(func() {
		for i := 0; i < parked; i++ {
			a.park(Attachment{Words: words, Seq: uint64(i)})
		}
	})
	if pages := uint64(parked / pageSlots); objects > pages+slack {
		t.Errorf("parking %d attachments allocated %d objects, want at most %d (one per page) + %d", parked, objects, pages, slack)
	}
	if limit := parked * slotBytes * 105 / 100; bytes > limit {
		t.Errorf("parking %d attachments allocated %d bytes, %.2f times the %d they occupy; want at most 1.05", parked, bytes, float64(bytes)/float64(parked*slotBytes), parked*slotBytes)
	}
	if got := a.get(parked / 2); got.Seq != parked/2-1 || len(got.Words) != 2 || got.Words[1] != 2 {
		t.Fatalf("attachment %d came back as %+v", parked/2, got)
	}
}

// TestSmallQueueStaysSmall: a queue that never outgrows its first page
// holds a doubling array, as a slice would — not a whole page.
func TestSmallQueueStaysSmall(t *testing.T) {
	q := queue{pool: new(pagePool)}
	for i := 0; i < 100; i++ {
		q.push(Event{At: Time(i)})
	}
	var f Footprint
	q.addTo(&f)
	if f.HeapPages != 1 || f.HeapBytes > 128*EventSize {
		t.Fatalf("100 events hold %d bytes in %d pages; want one array of at most 128 slots", f.HeapBytes, f.HeapPages)
	}
}

// heapPages is the address of every page of q's heap.
func heapPages(q *queue) []*Event {
	var out []*Event
	for _, pg := range q.heap.tab {
		out = append(out, &pg[0])
	}
	return out
}

// TestReserveThenPushAllocatesNothing: Reserve(n) pre-allocates the very
// pages n pushes then fill — nothing is allocated, nothing outgrown and
// dropped — on both kernels, below and above one page.
func TestReserveThenPushAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	for _, n := range []int{300, 5 * pageSlots} {
		e := NewEngine()
		e.Handle(KindRelease, handlerFunc(func(Event, Attachment) {}))
		e.Post(0, 0, Event{Kind: KindRelease}, Attachment{}) // grows the origin counters
		e.Step()
		if err := e.Reserve(n); err != nil {
			t.Fatal(err)
		}
		k := NewShards(2, 5, 2)
		if err := k.Reserve(1, n); err != nil {
			t.Fatal(err)
		}
		before := [][]*Event{heapPages(&e.q), heapPages(&k.shards[1].q)}
		if allocs := testing.AllocsPerRun(1, func() {
			e.DiscardPending()
			k.DiscardPending()
			for i := 0; i < n; i++ {
				e.Post(Time(n-i), 0, Event{Kind: KindRelease}, Attachment{})
				k.Post(1, Time(n-i), 1, Event{Kind: KindRelease}, Attachment{})
			}
		}); allocs != 0 {
			t.Errorf("Reserve(%d) then %d pushes allocated %.0f objects, want 0", n, n, allocs)
		}
		after := [][]*Event{heapPages(&e.q), heapPages(&k.shards[1].q)}
		for i := range before {
			if len(before[i]) != len(after[i]) {
				t.Fatalf("Reserve(%d): %d pages reserved, %d after the pushes", n, len(before[i]), len(after[i]))
			}
			for p := range before[i] {
				if before[i][p] != after[i][p] {
					t.Fatalf("Reserve(%d): page %d was replaced by the pushes", n, p)
				}
			}
		}
		if e.Pending() != n || k.Pending() != n {
			t.Fatalf("pending %d and %d after %d pushes", e.Pending(), k.Pending(), n)
		}
	}
}

// TestFanRoundAllocatesNothing: posting a fan record, expanding it and
// handling its events allocates nothing once the queue is warm — on the
// engine, within a shard and across a shard boundary.
func TestFanRoundAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	w := &fanWorld{nbrs: [][]int32{{1, 2, 3, 4, 5, 6, 7}, {}, {}, {}, {}, {}, {}, {}}, shards: 2}
	handled := 0
	count := handlerFunc(func(Event, Attachment) { handled++ })

	e := NewEngine()
	e.SetFanout(w)
	e.Handle(KindMessage, count)
	round := func() {
		e.PostFan(e.Now()+5, 0, Event{Kind: KindMessage}, 0, 0b1111111)
		e.Run(e.Now() + 5)
	}
	round()
	if allocs := testing.AllocsPerRun(500, round); allocs != 0 {
		t.Errorf("engine: %.1f allocations per fan round, want 0", allocs)
	}

	k := NewShards(2, 5, 8)
	k.SetFanout(w)
	k.Handle(KindMessage, count)
	sround := func() {
		at := k.Now(0) + 5
		k.PostFan(0, 0, at, 0, Event{Kind: KindMessage}, 0, 0b0000111) // cells 1-3: shard 0
		k.PostFan(0, 1, at, 0, Event{Kind: KindMessage}, 0, 0b1111000) // cells 4-7: shard 1, boxed
		k.Run(1, at)
	}
	sround()
	if allocs := testing.AllocsPerRun(500, sround); allocs != 0 {
		t.Errorf("shards: %.1f allocations per fan round, want 0", allocs)
	}
	if handled != 2*7*502 || e.Executed() != 7*502 || k.Executed() != 7*502 {
		t.Fatalf("handled %d events (engine %d, shards %d), want %d each", handled, e.Executed(), k.Executed(), 7*502)
	}
}

// TestSharedAttachmentFootprintBudget: a station answering its 18
// neighbours with one Use_i posts 18 identical attachments. They occupy
// one arena slot on the engine and within a shard, and across a boundary
// one mailbox entry that the merge parks once.
func TestSharedAttachmentFootprintBudget(t *testing.T) {
	const posts = 18
	use := []uint64{0xf0f0, 0x3}
	msg := Event{Kind: KindMessage}
	count := handlerFunc(func(Event, Attachment) {})

	e := NewEngine()
	e.Handle(KindMessage, count)
	for i := 0; i < posts; i++ {
		e.Post(5, 0, msg, Attachment{Words: use})
	}
	if f := e.Footprint(); e.q.atts.n != 1 || f.AttParked != 1 || f.AttShared != posts-1 || f.Events != posts {
		t.Fatalf("engine: %d posts took %d slots (%d stored, %d shared)", posts, e.q.atts.n, f.AttParked, f.AttShared)
	}

	k := NewShards(2, 5, 2)
	k.Handle(KindMessage, count)
	for i := 0; i < posts; i++ {
		k.PostCross(0, 0, 5, 0, msg, Attachment{Words: use})
		k.PostCross(0, 1, 5, 0, msg, Attachment{Words: use})
	}
	rt := k.shards[0].findRoute(1)
	if n := k.shards[0].q.atts.n; n != 1 || len(rt.words) != attHeader+len(use) || rt.n != posts {
		t.Fatalf("shards: %d posts each way took %d slots in the shard and %d mailbox words under %d records", posts, n, len(rt.words), rt.n)
	}
	k.flush(1)
	if f := k.Footprint(); k.shards[1].q.atts.n != 1 || f.AttParked != 2 || f.AttShared != 2*(posts-1) || f.Events != 2*posts {
		t.Fatalf("shards: the merge parked %d slots (%d stored, %d shared so far)", k.shards[1].q.atts.n, f.AttParked, f.AttShared)
	}
	if !e.Drain(posts) || !k.Drain(1, 2*posts) {
		t.Fatal("did not drain")
	}
}

// TestSharedAttachmentRoundAllocatesNothing: posting one snapshot 18
// times and delivering it 18 times allocates nothing once the queue is
// warm — on the engine, within a shard and across a shard boundary.
func TestSharedAttachmentRoundAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	const posts = 18
	use := []uint64{0xf0f0, 0x3}
	msg := Event{Kind: KindMessage}
	handled := 0
	count := handlerFunc(func(_ Event, att Attachment) { handled += len(att.Words) / 2 })

	e := NewEngine()
	e.Handle(KindMessage, count)
	round := func() {
		use[0]++ // a new snapshot every round, the same one within it
		for i := 0; i < posts; i++ {
			e.Post(e.Now()+5, 0, msg, Attachment{Words: use})
		}
		e.Run(e.Now() + 5)
	}
	round()
	if allocs := testing.AllocsPerRun(500, round); allocs != 0 {
		t.Errorf("engine: %.1f allocations per shared round, want 0", allocs)
	}

	k := NewShards(2, 5, 2)
	k.Handle(KindMessage, count)
	sround := func() {
		use[0]++
		at := k.Now(0) + 5
		for i := 0; i < posts; i++ {
			k.PostCross(0, 0, at, 0, msg, Attachment{Words: use})
			k.PostCross(0, 1, at, 0, msg, Attachment{Words: use})
		}
		k.Run(1, at)
	}
	sround()
	if allocs := testing.AllocsPerRun(500, sround); allocs != 0 {
		t.Errorf("shards: %.1f allocations per shared round, want 0", allocs)
	}
	ef, kf := e.Footprint(), k.Footprint()
	if handled != 3*posts*502 || ef.AttParked != 502 || ef.AttShared != (posts-1)*502 || kf.AttParked != 2*502 || kf.AttShared != 2*(posts-1)*502 {
		t.Fatalf("handled %d events; engine stored %d and shared %d, shards %d and %d", handled, ef.AttParked, ef.AttShared, kf.AttParked, kf.AttShared)
	}
}
