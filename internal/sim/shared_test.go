package sim

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"testing"
)

// The shared-attachment property: an attachment identical to the one its
// origin queued last costs a reference to that slot or mailbox entry, not
// a copy, and no delivery can tell. The kernel has one attachment path,
// so what it is checked against lives here: a model that keeps each
// post's own copy of its words and says, per delivery, what the handler
// should have read.

// sharedWidth is the widest snapshot of a test schedule, in words.
const sharedWidth = 3

// sharedCopy is the model's copy of one posted attachment.
type sharedCopy struct {
	words [sharedWidth]uint64
	n     int
	seq   uint64
}

func copyOf(att Attachment) sharedCopy {
	c := sharedCopy{n: len(att.Words), seq: att.Seq}
	copy(c.words[:], att.Words)
	return c
}

// sharedRec is one executed event: its place in the order and the
// attachment it was handed.
type sharedRec struct {
	at   Time
	key  uint64
	cell int32
	kind Kind
	att  sharedCopy
}

// tally is one shard's event count, padded: shards count concurrently.
type tally struct {
	n int
	_ [56]byte
}

func sum(ts []tally) int {
	n := 0
	for i := range ts {
		n += ts[i].n
	}
	return n
}

// sharedSched drives one random schedule over one kernel. Every cell
// holds a live snapshot — a station's Use_i — that it hands to the kernel
// as a view each time it answers a neighbour, changes now and then, and
// changes back; the schedule is a pure function of per-cell random
// streams, so it unfolds the same way on every kernel.
type sharedSched struct {
	w *fanWorld
	T Time
	ports

	rng  []Rand
	live [][]uint64 // per cell, mutated in place and scribbled over after every post
	seq  []uint64   // per cell: the Seq its attachments carry
	// sent[c] holds the model's copy of every attachment cell c posted;
	// the event carries the index + 1 in Peer. Preallocated, so a shard
	// reading an old entry never races the origin's shard writing a new
	// one.
	sent  [][]sharedCopy
	nsent []int32

	got, want       [][]sharedRec // per shard: what the kernel handed out, what the model says
	posted, handled []tally       // per shard, in events
	attachments     []tally       // per shard: attachment-carrying posts
}

// maxSharedPosts bounds the attachments one cell posts in a schedule.
const maxSharedPosts = 1 << 13

func newSharedSched(w *fanWorld, p ports) *sharedSched {
	cells := len(w.nbrs)
	s := &sharedSched{
		w: w, T: 5, ports: p,
		rng: make([]Rand, cells), live: make([][]uint64, cells), seq: make([]uint64, cells),
		sent: make([][]sharedCopy, cells), nsent: make([]int32, cells),
		got: make([][]sharedRec, w.shards), want: make([][]sharedRec, w.shards),
		posted: make([]tally, w.shards), handled: make([]tally, w.shards), attachments: make([]tally, w.shards),
	}
	for c := range s.rng {
		s.rng[c] = SubstreamValue(7, uint64(c))
		s.live[c] = []uint64{uint64(c), 1}
		s.sent[c] = make([]sharedCopy, maxSharedPosts)
	}
	return s
}

// send posts ev from cell from to cell to carrying att, which the model
// copies and the caller's buffer does not survive.
func (s *sharedSched) send(from, to int32, at Time, ev Event, att Attachment) {
	sh := s.w.shardOf(from)
	if !att.Empty() {
		s.sent[from][s.nsent[from]] = copyOf(att)
		s.nsent[from]++
		ev.Peer = s.nsent[from]
		s.attachments[sh].n++
	}
	s.posted[sh].n++
	s.post(from, to, at, ev, att)
	for i := range att.Words {
		att.Words[i] = 0xdead // the view dies with the call
	}
}

// snapshot sends cell c's live snapshot to cell to.
func (s *sharedSched) snapshot(c, to int32, at Time, ev Event) {
	view := append([]uint64(nil), s.live[c]...)
	s.send(c, to, at, ev, Attachment{Words: view, Seq: s.seq[c]})
}

func (s *sharedSched) record(ev Event, cell int32, att Attachment) {
	sh := s.w.shardOf(cell)
	s.handled[sh].n++
	rec := sharedRec{at: ev.At, key: ev.key, cell: cell, kind: ev.Kind, att: copyOf(att)}
	s.got[sh] = append(s.got[sh], rec)
	rec.att = sharedCopy{}
	if ev.Peer != 0 {
		rec.att = s.sent[ev.Origin()][ev.Peer-1]
	}
	s.want[sh] = append(s.want[sh], rec)
}

// HandleEvent logs the event and, while its time-to-live (ev.T) lasts,
// makes the receiving cell change its snapshot or not and then answer: a
// handful of neighbours with the snapshot as it stands — repeats, in a
// shard and across boundaries — or an attachment-free message, a fan
// record, a func event, or an attachment that is a sequence number alone.
func (s *sharedSched) HandleEvent(ev Event, att Attachment) {
	c := ev.Cell
	s.record(ev, c, att)
	if ev.T == 0 || ev.Kind != KindMessage {
		return
	}
	r := &s.rng[c]
	now := s.now(c)
	sh := s.w.shardOf(c)
	switch r.Intn(8) {
	case 0:
		// One of two bits of one word: four values per word, so a change
		// is often a change back.
		s.live[c][r.Intn(len(s.live[c]))] ^= 1 << uint(40+r.Intn(2))
	case 1:
		s.seq[c] = uint64(r.Intn(2)) // same words under another Seq is another attachment
	case 2:
		if c%5 == 0 && now >= 3*s.T && len(s.live[c]) < sharedWidth {
			s.live[c] = append(s.live[c], 7) // a wider set than any before: the arenas re-stride
		}
	}
	nbrs := s.w.nbrs[c]
	child := Event{Kind: KindMessage, T: ev.T - 1}
	switch r.Intn(8) {
	case 0, 1, 2:
		// A run of the sorted list, so mostly one shard's cells.
		for i, first := 1+r.Intn(6), r.Intn(len(nbrs)); i > 0; i-- {
			s.snapshot(c, nbrs[(first+i)%len(nbrs)], now+s.T+Time(r.Intn(3)), child)
		}
	case 3:
		s.send(c, nbrs[r.Intn(len(nbrs))], now+s.T, child, Attachment{})
	case 4:
		for w := 0; w*64 < len(nbrs); w++ {
			word := FanWord(nil, len(nbrs), w)
			s.posted[sh].n += bits.OnesCount64(word)
			s.postFan(c, now+s.T, child, w, word)
		}
	case 5:
		at := now + Time(r.Intn(5))
		s.posted[sh].n++
		s.fn(c, at, func() { s.record(Event{At: at, Kind: KindFunc}, c, Attachment{}) })
	case 6:
		s.send(c, nbrs[r.Intn(len(nbrs))], now+s.T, child, Attachment{Seq: uint64(c) + 1})
	}
}

// seed makes every other cell answer its whole neighbourhood with its
// snapshot, one message each: up to 130 identical posts of one origin.
func (s *sharedSched) seed(ttl int64) {
	for c := 0; c < len(s.w.nbrs); c += 2 {
		at := s.now(int32(c)) + s.T + Time(c%7)
		for _, to := range s.w.nbrs[c] {
			s.snapshot(int32(c), to, at, Event{Kind: KindMessage, T: ttl})
		}
	}
}

// check compares what the kernel handed out with the model, and the
// kernel's attachment counters with the posts made.
func (s *sharedSched) check(t *testing.T, where string, f Footprint) {
	t.Helper()
	if !reflect.DeepEqual(s.got, s.want) {
		for sh := range s.got {
			for i := range s.got[sh] {
				if s.got[sh][i] != s.want[sh][i] {
					t.Fatalf("%s: shard %d delivery %d read %+v, the post's own copy says %+v", where, sh, i, s.got[sh][i], s.want[sh][i])
				}
			}
		}
		t.Fatalf("%s: deliveries differ from the model", where)
	}
	// (Two in five share at 7 shards, where a random neighbourhood spans
	// every shard and one box memo per origin is not enough; two in three
	// in one queue.)
	if posts := uint64(sum(s.attachments)); f.AttParked+f.AttShared != posts || f.AttShared < posts/3 {
		t.Fatalf("%s: %d attachments stored and %d shared for %d posts; want them to add up, and a third at least to share", where, f.AttParked, f.AttShared, posts)
	}
}

// sharedSlots counts the arena slots of q that more than one queued
// event refers to.
func sharedSlots(q *queue) int {
	n := 0
	for ref := uint32(1); int(ref) <= q.atts.n; ref++ {
		if q.atts.slot(ref)[1] >= 2*attRef {
			n++
		}
	}
	return n
}

// wantAllFree fails unless every slot q's arena handed out is back on
// its free list: each reference taken was dropped exactly once.
func wantAllFree(t *testing.T, where string, q *queue) {
	t.Helper()
	if free := q.atts.freeSlots(); free != q.atts.n {
		t.Fatalf("%s: %d of %d attachment slots still held after the drain", where, q.atts.n-free, q.atts.n)
	}
}

func sharedOnEngine(w *fanWorld) (*Engine, *sharedSched) {
	e := NewEngine()
	s := newSharedSched(w, enginePorts(e))
	e.SetFanout(w)
	e.Handle(KindMessage, s)
	return e, s
}

func sharedOnShards(w *fanWorld) (*Shards, *sharedSched) {
	k := NewShards(w.shards, 5, len(w.nbrs))
	s := newSharedSched(w, shardsPorts(k, w))
	k.SetFanout(w)
	k.Handle(KindMessage, s)
	return k, s
}

func sharedByCell(logs [][]sharedRec) map[int32][]sharedRec {
	out := map[int32][]sharedRec{}
	for _, l := range logs {
		for _, r := range l {
			out[r.cell] = append(out[r.cell], r)
		}
	}
	return out
}

// TestSharedAttachmentsMatchCopies runs the schedule on Engine and on
// Shards at 1 and 7 shards with 1 and 2 workers. Every delivery must read
// the (words, Seq) its post handed in, in the (At, key, Cell) order that
// is the same per cell on every kernel; Executed() and Pending() must
// agree with the posts made after every step (Engine) or at every
// barrier (Shards); a DrainUntil cutoff must leave shared slots queued
// and change nothing; and a DiscardPending in mid-run, which frees every
// slot under the per-origin memos, must not let a later post resurrect
// one.
func TestSharedAttachmentsMatchCopies(t *testing.T) {
	const ttl, cutoff = 3, 22
	var ref map[int32][]sharedRec

	t.Run("Engine", func(t *testing.T) {
		w := newFanWorld(140, 1)
		e, s := sharedOnEngine(w)
		s.seed(ttl)
		for e.Step() {
			if done, posted := sum(s.handled), sum(s.posted); e.Executed() != uint64(done) || e.Pending() != posted-done {
				t.Fatalf("after %d of %d events: Executed() = %d, Pending() = %d", done, posted, e.Executed(), e.Pending())
			}
		}
		if len(s.got[0]) < 20_000 {
			t.Fatalf("the schedule is vacuous: %d events", len(s.got[0]))
		}
		s.check(t, "engine", e.Footprint())
		wantAllFree(t, "engine", &e.q)
		if e.q.atts.width != attHeader+sharedWidth {
			t.Fatalf("arena slots are %d words wide: no wider snapshot was ever posted", e.q.atts.width)
		}
		ref = sharedByCell(s.got)

		// Cut off with shared slots still queued, then carry on: the same
		// deliveries as the straight run.
		ce, cs := sharedOnEngine(w)
		cs.seed(ttl)
		if !ce.DrainUntil(cutoff, math.MaxUint64) || sharedSlots(&ce.q) == 0 {
			t.Fatalf("DrainUntil(%d) left %d shared slots queued", cutoff, sharedSlots(&ce.q))
		}
		if !ce.Drain(math.MaxUint64) || !reflect.DeepEqual(cs.got, s.got) {
			t.Fatal("a run cut at DrainUntil and resumed delivered something else than a straight one")
		}

		// Discard in mid-run: every memo now names a slot that is free or
		// not handed out. Seeding again posts the very snapshots some of
		// them held.
		de, ds := sharedOnEngine(w)
		ds.seed(ttl)
		de.DrainUntil(cutoff, math.MaxUint64)
		if dropped := de.DiscardPending(); dropped == 0 || dropped != sum(ds.posted)-sum(ds.handled) {
			t.Fatalf("DiscardPending dropped %d events of %d posted and %d handled", dropped, sum(ds.posted), sum(ds.handled))
		}
		before := len(ds.got[0])
		ds.seed(ttl)
		if !de.Drain(math.MaxUint64) || len(ds.got[0]) < before+10_000 {
			t.Fatalf("the run after the discard is vacuous: %d events", len(ds.got[0])-before)
		}
		ds.check(t, "engine after DiscardPending", de.Footprint())
		wantAllFree(t, "engine after DiscardPending", &de.q)
	})

	for _, shards := range []int{1, 7} {
		for _, workers := range []int{1, 2} {
			w := newFanWorld(140, shards)
			k, s := sharedOnShards(w)
			s.seed(ttl)
			k.SetBarrier(func() {
				if done, posted := sum(s.handled), sum(s.posted); k.Executed() != uint64(done) || k.Pending() != posted-done {
					t.Fatalf("shards=%d workers=%d, window %d: Executed() = %d and Pending() = %d after %d of %d events", shards, workers, k.Windows(), k.Executed(), k.Pending(), done, posted)
				}
			})
			if !k.Drain(workers, math.MaxUint64) {
				t.Fatal("did not drain")
			}
			where := fmt.Sprintf("shards=%d workers=%d", shards, workers)
			s.check(t, where, k.Footprint())
			if !reflect.DeepEqual(sharedByCell(s.got), ref) {
				t.Fatalf("shards=%d workers=%d: per-cell deliveries differ from the serial engine's", shards, workers)
			}
			for i := range k.shards {
				wantAllFree(t, where, &k.shards[i].q)
			}

			ck, cs := sharedOnShards(w)
			cs.seed(ttl)
			queued := 0
			if ck.DrainUntil(workers, cutoff, math.MaxUint64) {
				for i := range ck.shards {
					queued += sharedSlots(&ck.shards[i].q)
				}
			}
			if queued == 0 {
				t.Fatalf("shards=%d workers=%d: DrainUntil(%d) left no shared slot queued", shards, workers, cutoff)
			}
			if !ck.Drain(workers, math.MaxUint64) || !reflect.DeepEqual(cs.got, s.got) {
				t.Fatalf("shards=%d workers=%d: a run cut at DrainUntil and resumed delivered something else than a straight one", shards, workers)
			}

			// The backstop trips at a barrier with attachments still boxed,
			// so the discard empties mailboxes under the box memos too.
			dk, ds := sharedOnShards(w)
			ds.seed(ttl)
			dk.DrainUntil(workers, cutoff, 3000)
			if dropped := dk.DiscardPending(); dropped == 0 || dropped != sum(ds.posted)-sum(ds.handled) {
				t.Fatalf("shards=%d workers=%d: DiscardPending dropped %d events of %d posted and %d handled", shards, workers, dropped, sum(ds.posted), sum(ds.handled))
			}
			ds.seed(ttl)
			if !dk.Drain(workers, math.MaxUint64) {
				t.Fatal("did not drain after the discard")
			}
			ds.check(t, where+" after DiscardPending", dk.Footprint())
			for i := range dk.shards {
				wantAllFree(t, where+" after DiscardPending", &dk.shards[i].q)
			}
		}
	}
}

// TestSharedAttachmentCornerCases walks the memo through every state a
// hint can be in, one post at a time.
func TestSharedAttachmentCornerCases(t *testing.T) {
	a, b, c := []uint64{1, 2}, []uint64{3, 4}, []uint64{5, 6, 7, 8}
	var read []sharedCopy
	log := handlerFunc(func(_ Event, att Attachment) {
		cp := sharedCopy{n: len(att.Words), seq: att.Seq}
		copy(cp.words[:], att.Words) // c is longer than a copy keeps; its head will do
		read = append(read, cp)
	})
	want := func(t *testing.T, what string, words ...[]uint64) {
		t.Helper()
		if len(read) != len(words) {
			t.Fatalf("%s: %d deliveries, want %d", what, len(read), len(words))
		}
		for i, w := range words {
			if read[i].n != len(w) || read[i].words[0] != w[0] || read[i].words[1] != w[1] {
				t.Fatalf("%s: delivery %d read %+v, want %v", what, i, read[i], w)
			}
		}
		read = read[:0]
	}
	msg := Event{Kind: KindMessage}

	t.Run("Engine", func(t *testing.T) {
		var e *Engine
		fresh := func() {
			e = NewEngine()
			e.Handle(KindMessage, log)
		}
		post := func(at Time, origin int32, words []uint64, seq uint64) {
			e.Post(at, origin, msg, Attachment{Words: append([]uint64(nil), words...), Seq: seq})
		}

		// Widening with a shared slot live: its references and words move.
		fresh()
		post(1, 1, a, 0)
		post(2, 1, a, 0)
		post(5, 1, a, 0)
		if e.q.atts.n != 1 || sharedSlots(&e.q) != 1 {
			t.Fatalf("three identical posts hold %d slots, %d of them shared", e.q.atts.n, sharedSlots(&e.q))
		}
		post(3, 2, c, 0)
		post(4, 1, a, 0) // the memo survives the re-stride
		if e.q.atts.n != 2 || e.q.atts.width != attHeader+len(c) {
			t.Fatalf("after widening: %d slots of %d words", e.q.atts.n, e.q.atts.width)
		}
		e.Drain(10)
		want(t, "across a widen", a, a, c, a, a)
		wantAllFree(t, "across a widen", &e.q)

		if f := e.Footprint(); f.AttParked != 2 || f.AttShared != 3 {
			t.Fatalf("%d attachments stored and %d shared, want 2 and 3", f.AttParked, f.AttShared)
		}

		// A freed slot still holds the words — the only free one even its
		// Seq, the end of the free list being 0 too — and the memo still
		// names it: a new post must take a slot of its own, not a
		// reference to a slot on the free list.
		fresh()
		post(6, 1, a, 0)
		e.Drain(10)
		post(7, 1, a, 0)
		post(7, 2, b, 0) // would be handed the same slot were it both free and referenced
		e.Drain(10)
		want(t, "after the slot was freed", a, a, b)
		if f := e.Footprint(); f.AttParked != 3 || f.AttShared != 0 {
			t.Fatalf("%d attachments stored and %d shared, want 3 and none", f.AttParked, f.AttShared)
		}

		// Same words under another Seq, another length, a Seq alone: not
		// the same attachment.
		fresh()
		post(8, 1, a, 0)
		post(8, 1, a, 9)
		post(8, 1, a[:1], 9)
		e.Post(8, 1, msg, Attachment{Seq: 9})
		e.Post(8, 1, msg, Attachment{Seq: 9})
		if f := e.Footprint(); f.AttParked != 4 || f.AttShared != 1 {
			t.Fatalf("%d attachments stored and %d shared, want 4 and the repeated Seq", f.AttParked, f.AttShared)
		}
		e.Drain(10)
		if len(read) != 5 || read[1].seq != 9 || read[2].n != 1 || read[3] != (sharedCopy{seq: 9}) || read[4] != read[3] {
			t.Fatalf("attachments differing in Seq or length read back as %+v", read)
		}
		read = read[:0]

		// DiscardPending hands the slots out again from the first: the memo
		// of origin 1 names a slot that now holds origin 2's words.
		fresh()
		post(9, 1, a, 0)
		e.DiscardPending()
		post(9, 2, b, 0)
		post(9, 1, a, 0)
		post(9, 1, b, 0) // equal to a live slot, but not the one its memo names: a copy
		if e.q.atts.n != 3 {
			t.Fatalf("%d slots after the discard, want 3", e.q.atts.n)
		}
		e.Drain(10)
		want(t, "after DiscardPending", a, b, b)
		wantAllFree(t, "after DiscardPending", &e.q)
	})

	t.Run("Shards", func(t *testing.T) {
		// Cells 0-7 are shard 0's, 8-15 shard 1's.
		k := NewShards(2, 5, 16)
		k.SetFanout(&fanWorld{nbrs: [][]int32{{8, 9}}, shards: 2})
		k.Handle(KindMessage, log)
		rt := func() *outRoute { return k.shards[0].findRoute(1) }
		cross := func(at Time, origin int32, words []uint64) {
			ev := msg
			ev.Cell = 8
			k.PostCross(0, 1, at, origin, ev, Attachment{Words: append([]uint64(nil), words...)})
		}

		// Three identical posts across the boundary: one entry, and one
		// slot at the destination however the records interleave there.
		cross(5, 0, a)
		cross(7, 0, a)
		cross(6, 1, b)
		cross(8, 0, a)
		if n := len(rt().words); n != 2*(attHeader+2) {
			t.Fatalf("route arena holds %d words for two distinct attachments", n)
		}
		k.Run(1, 5)
		if q := &k.shards[1].q; q.atts.n != 2 || sharedSlots(q) != 1 {
			t.Fatalf("the merge parked %d slots, %d of them shared", q.atts.n, sharedSlots(q))
		}
		k.Run(1, 8)
		want(t, "across the boundary", a, b, a, a)
		wantAllFree(t, "across the boundary", &k.shards[1].q)

		// A flush empties the box under a memo that says "record 1".
		// Whatever sits there next — a func, a fan record, a record with
		// no attachment, another origin's attachment — is not taken for
		// the origin's own.
		for i, fill := range []func(at Time){
			func(at Time) { k.Cross(0, 1, at, 1, func() {}) },
			func(at Time) { k.PostFan(0, 1, at, 0, msg, 0, 0b11) },
			func(at Time) { k.PostCross(0, 1, at, 1, Event{Kind: KindMessage, Cell: 8}, Attachment{}) },
			func(at Time) { cross(at, 1, b) },
		} {
			origin := int32(2 + i)
			cross(k.Now(0)+5, origin, a)
			k.Run(1, k.Now(0)+5)
			if k.last[origin].box != 1 || rt().n != 0 || len(rt().box) != 0 {
				t.Fatalf("case %d: memo %+v over a box of %d records in %d pages", i, k.last[origin], rt().n, len(rt().box))
			}
			at := k.Now(0) + 5
			fill(at)
			cross(at, origin, a)
			cross(at+1, origin, a)
			if r := rt(); r.n != 3 || r.at(1).ref == 0 || r.at(2).ref != r.at(1).ref {
				t.Fatalf("case %d: box %+v", i, r.box[0][:r.n])
			}
			k.Run(1, at+1)
			if got := read[len(read)-2:]; got[0].n != 2 || got[0].words[0] != a[0] || got[0].words[1] != a[1] || got[1] != got[0] {
				t.Fatalf("case %d: the snapshot read back as %+v", i, got)
			}
			read = read[:0]
		}
		if f := k.Footprint(); f.AttShared != 2+4 || f.Events != 0 {
			t.Fatalf("footprint %+v", f)
		}
	})
}
