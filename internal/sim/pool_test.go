package sim

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/raceflag"
)

// Tests of the page pool under the sharded kernel: what a run holds and
// has held is a function of the run alone, a recycled page is written
// before it is read, and the pool's high-water mark is that of the
// records, not the sum of every table's own.

// burstRun drives a load shaped like a warm start over a kernel of the
// given shape: every origin begins with burst call-ends due within the
// first few windows, every other call-end sends a message with a two-word
// attachment seventeen origins on — another shard, as a rule — and a
// message is answered by a call-end of half the weight three ticks later,
// until the weight is spent. With far, every third call-end of the burst
// is due 100 to 1 100 ticks out instead, in the far logs. until > 0 stops
// the run there. It returns a hash per origin of what the origin handled,
// and when, and the kernel.
func burstRun(t *testing.T, shards, workers, burst int, far bool, until Time) ([]uint64, *Shards) {
	t.Helper()
	const origins, lookahead, span = 64, 10, 40
	shardOf := func(c int32) int { return int(c) * shards / origins }
	k := NewShards(shards, lookahead, origins)
	hash := make([]uint64, origins) // slot c is written by c's shard only
	fold := func(c int32, ev Event, att Attachment) {
		h := hash[c]*0x9e3779b97f4a7c15 + uint64(k.Now(shardOf(c)))<<20 + uint64(ev.T)<<4 + uint64(ev.Kind)
		for _, w := range att.Words {
			h = h*31 + w
		}
		hash[c] = h
	}
	k.Handle(KindRelease, handlerFunc(func(ev Event, att Attachment) {
		c := ev.Cell
		fold(c, ev, att)
		if (ev.T+int64(c))%2 == 0 {
			d := (c + 17) % origins
			use := [2]uint64{uint64(c), uint64(ev.T) / 8} // repeats, so some posts share a stored copy
			k.PostCross(shardOf(c), shardOf(d), k.Now(shardOf(c))+lookahead, c,
				Event{Kind: KindMessage, Cell: d, T: ev.T}, Attachment{Words: use[:]})
		}
	}))
	k.Handle(KindMessage, handlerFunc(func(ev Event, att Attachment) {
		c := ev.Cell
		fold(c, ev, att)
		if len(att.Words) != 2 || att.Words[1] != uint64(ev.T)/8 {
			t.Errorf("message %+v arrived with attachment %v", ev, att.Words)
		}
		if ev.T > 1 {
			k.Post(shardOf(c), k.Now(shardOf(c))+3, c, Event{Kind: KindRelease, Cell: c, T: ev.T / 2}, Attachment{})
		}
	}))
	for c := int32(0); c < origins; c++ {
		for i := 0; i < burst; i++ {
			at := Time((i*7 + int(c)) % span)
			if far && i%3 == 0 {
				at += 100 + Time(i*13%1000)
			}
			k.Post(shardOf(c), at, c, Event{Kind: KindRelease, Cell: c, T: int64(i % 64)}, Attachment{})
		}
	}
	if until > 0 {
		if !k.DrainUntil(workers, until, 1<<40) {
			t.Fatal("the event backstop tripped")
		}
	} else if !k.Drain(workers, 1<<40) {
		t.Fatal("did not drain")
	}
	return hash, k
}

// withoutHighWater is f less the one figure that depends on how the
// workers' page traffic interleaved.
func withoutHighWater(f Footprint) Footprint {
	f.PoolPages, f.PoolBytes = 0, 0
	return f
}

// TestPoolKeepsTrajectoriesAndFootprints: per-origin trajectories are
// the same at every shard and worker count, and at each shard count
// everything the kernel reports — pages held by the heaps, pages out of
// the pool at the end, peaks, pops, far-log refills and the records they
// batched, attachments stored and shared — is the same whether one
// worker or two moved the pages. Only the pool's
// high-water mark may differ: a page one worker hands back a moment
// after another asked for one is a page more.
func TestPoolKeepsTrajectoriesAndFootprints(t *testing.T) {
	burst := 1500
	if raceflag.Enabled {
		burst = 500 // still several pages per heap at 4 shards, at a third of the detector's time
	}
	ref, _ := burstRun(t, 1, 1, burst, true, 0)
	for _, shards := range []int{1, 4, 16} {
		var one Footprint
		for _, workers := range []int{1, 2} {
			hash, k := burstRun(t, shards, workers, burst, true, 0)
			if !reflect.DeepEqual(hash, ref) {
				t.Fatalf("%d shards, %d workers: trajectories differ from one shard's", shards, workers)
			}
			f := k.Footprint()
			if f.Events != 0 || f.Records != 0 || f.PoolOut > shards || f.AttShared == 0 || f.PoolPages < 64*burst/pageSlots-shards ||
				f.LogPages > shards || f.Refills < 4 || f.Batched < uint64(64*burst/3-shards*smallQueue) {
				t.Fatalf("%d shards, %d workers: footprint %+v after the drain", shards, workers, f)
			}
			if workers == 1 {
				one = f
			} else if withoutHighWater(f) != withoutHighWater(one) {
				t.Fatalf("%d shards: footprint with two workers\n%+v\nwith one\n%+v", shards, f, one)
			}
		}
	}
}

// TestPoolHighWaterBudget: a burst that drains on 4 shards ends with a
// pool that never had more pages out than the records at their peak
// fill, plus two per table — a heap's page of hysteresis and the page
// being filled, a mailbox's last page and the one the merge is copying
// while the heap takes another. With far call-ends the far logs' own
// pages count too, and the same budget holds. Per-route reserves beside
// per-heap ones used to cost the sum of both worst cases.
func TestPoolHighWaterBudget(t *testing.T) {
	for _, far := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			_, k := burstRun(t, 4, workers, 2000, far, 0)
			f := k.Footprint()
			tables := 0
			for s := 0; s < k.NumShards(); s++ {
				tables += 1 + k.Routes(s)
			}
			if budget := f.PeakRecords/pageSlots + 2*tables; f.PoolPages+f.LogPages > budget || tables <= 4 || far != (f.Batched > 0) {
				t.Errorf("far %v, %d workers: pool high-water %d pages and %d log pages for a peak of %d records in %d tables, budget %d; %d records batched",
					far, workers, f.PoolPages, f.LogPages, f.PeakRecords, tables, budget, f.Batched)
			}
		}
	}
}

// TestDiscardPendingReturnsPages: after a truncated drain and
// DiscardPending every pool page is back in the pool — each heap keeps
// the first page, which is its own, and with far call-ends queued each
// far log its own page too — and a mailbox holds no page before its
// first record or between barriers.
func TestDiscardPendingReturnsPages(t *testing.T) {
	for _, far := range []bool{false, true} {
		t.Run(fmt.Sprintf("far=%v", far), func(t *testing.T) {
			_, k := burstRun(t, 4, 2, 2000, far, 25)
			if f := k.Footprint(); f.PoolOut < 16 || f.Events == 0 || far != (f.LogRecords > 0) {
				t.Fatalf("the run was cut too late to leave anything queued: %+v", f)
			}
			k.shards[0].route(3) // materialized, never written
			for at := k.Now(1) + 10; at < k.Now(1)+13; at++ {
				k.PostCross(1, 2, at, 20, Event{Kind: KindMessage, Cell: 40}, Attachment{})
			}
			if rt := k.shards[1].findRoute(2); len(rt.box) != 1 || len(k.shards[0].findRoute(3).box) != 0 {
				t.Fatalf("three boxed records hold %d pages, an unused mailbox %d", len(rt.box), len(k.shards[0].findRoute(3).box))
			}
			if k.DiscardPending() == 0 {
				t.Fatal("nothing was discarded")
			}
			logs := 0
			if far {
				logs = 4
			}
			f := k.Footprint()
			if f.PoolOut != 0 || f.HeapPages != 4 || f.HeapBytes != 4*pageSlots*EventSize || f.LogPages != logs || f.LogBytes != uint64(logs)*pageSlots*EventSize ||
				f.Records != 0 || f.Events != 0 {
				t.Fatalf("after DiscardPending: %+v", f)
			}
			for s := range k.shards {
				for j := range k.shards[s].routes {
					if rt := &k.shards[s].routes[j]; len(rt.box) != 0 || rt.n != 0 {
						t.Fatalf("route %d->%d still holds %d pages", s, rt.dst, len(rt.box))
					}
				}
			}
			// The pages are good for another run.
			k.Post(0, k.Now(0)+1, 0, Event{Kind: KindRelease, Cell: 0, T: 4}, Attachment{})
			if !k.Drain(2, 1000) || k.Footprint().PoolPages != f.PoolPages {
				t.Fatalf("the kernel did not run on after the discard: %+v", k.Footprint())
			}
		})
	}
}

// TestRecycledPagesAreWrittenBeforeRead runs the burst with its far
// call-ends, and the suites that pin the queue's order, the far log's
// pages, fan records, shared attachments, the barrier merge on two and
// four workers and the truncated drain, with every page overwritten on its way back
// into the pool by records due at -1. Such a record sorts before
// anything a run can queue, so a heap, a far log, a batch or a mailbox
// that read a slot of a recycled page it had not written would run it
// first — a scheduling panic, a missing handler or a different
// trajectory.
func TestRecycledPagesAreWrittenBeforeRead(t *testing.T) {
	ref, _ := burstRun(t, 1, 1, 1500, true, 0)
	PoisonPages(t)
	var p pagePool
	pg := p.get()
	pg[5].At = 9
	p.put(pg)
	if got := p.get(); got[5].At != -1 || got[pageMask].At != -1 {
		t.Fatal("the hook does not poison")
	}
	for _, shape := range [][2]int{{4, 1}, {4, 2}, {16, 2}} {
		t.Run(fmt.Sprintf("burst on %d shards, %d workers", shape[0], shape[1]), func(t *testing.T) {
			if hash, _ := burstRun(t, shape[0], shape[1], 1500, true, 0); !reflect.DeepEqual(hash, ref) {
				t.Fatal("trajectories differ from the unpoisoned run's")
			}
		})
	}
	t.Run("discard", TestDiscardPendingReturnsPages)
	t.Run("far log pages", TestFarLogReturnsPages)
	t.Run("queue order", TestQueueMatchesReference)
	if !raceflag.Enabled { // ten seconds there, and what a table reads is no matter of timing
		t.Run("fan records", TestFanRecordsMatchSinglePosts)
		t.Run("shared attachments", TestSharedAttachmentsMatchCopies)
	}
	t.Run("fan push-back", TestFanPushBack)
	t.Run("shared attachment corners", TestSharedAttachmentCornerCases)
	t.Run("attachment outlives handler", TestAttachmentSlotOutlivesHandler)
	t.Run("parallel flush", TestShardsMergeMatchesOneWorker)
	t.Run("truncated drain", TestShardsDrainUntilMatchesDrainPrefix)
}

// TestFarLogReturnsPages: the far log hands its pages back to the pool as
// batches are read past them and the last one once it empties, keeping
// only its own; DiscardPending hands back what it still holds; and a log
// filled again after the discard, due long after anything the discarded
// one held, runs in order to the end.
func TestFarLogReturnsPages(t *testing.T) {
	e := NewEngine()
	var got []Time
	e.Handle(KindRelease, handlerFunc(func(ev Event, _ Attachment) { got = append(got, ev.At) }))
	fill := func(from Time) {
		for i := 0; i < 5*pageSlots; i++ {
			e.Post(from+Time(i*7%4096), 0, Event{Kind: KindRelease}, Attachment{})
		}
	}
	fill(nearSpan)
	// The first smallQueue posts go on the heap; the log holds the rest in
	// its own page and four of the pool's.
	if f := e.Footprint(); f.LogPages != 5 || f.PoolOut != 4 || f.LogRecords != 5*pageSlots-smallQueue {
		t.Fatalf("%d far posts: %+v", 5*pageSlots, f)
	}
	e.Run(nearSpan + 2047)
	f := e.Footprint()
	if left := f.LogRecords; left == 0 || f.Refills == 0 || f.PoolOut > left/pageSlots+2 || f.PoolOut != f.LogPages-1 {
		t.Fatalf("half run: %d records left in %d log pages, %d pool pages out", left, f.LogPages, f.PoolOut)
	}
	if n := e.DiscardPending(); n != f.LogRecords {
		t.Fatalf("discarded %d events, the log held %d", n, f.LogRecords)
	}
	if f := e.Footprint(); f.LogPages != 1 || f.LogBytes != pageSlots*EventSize || f.PoolOut != 0 {
		t.Fatalf("after the discard: %+v", f)
	}
	got = got[:0]
	fill(e.Now() + 10000)
	if !e.Drain(math.MaxUint64) || len(got) != 5*pageSlots || !slices.IsSorted(got) {
		t.Fatalf("the refilled log ran %d of %d events, sorted: %v", len(got), 5*pageSlots, slices.IsSorted(got))
	}
	if f := e.Footprint(); f.LogPages != 1 || f.PoolOut != 0 || f.Records != 0 {
		t.Fatalf("after the drain: %+v", f)
	}
}
