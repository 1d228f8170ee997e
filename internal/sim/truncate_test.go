package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// TestEngineDrainUntilDiscardPending: DrainUntil executes exactly the
// events at or before the cutoff, parks the clock there, and leaves the
// rest queued for DiscardPending.
func TestEngineDrainUntilDiscardPending(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{1, 5, 10, 15, 40} {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	if !e.DrainUntil(10, 1_000) {
		t.Fatal("DrainUntil hit the backstop")
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 5 || got[2] != 10 {
		t.Fatalf("executed %v, want [1 5 10]", got)
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %d, want 10 (clock parks at cutoff)", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2 post-cutoff events", e.Pending())
	}
	if n := e.DiscardPending(); n != 2 {
		t.Fatalf("DiscardPending = %d, want 2", n)
	}
	if e.Pending() != 0 || e.Now() != 10 {
		t.Fatalf("after discard: Pending=%d Now=%d, want 0 and 10", e.Pending(), e.Now())
	}
}

// TestEngineDrainUntilBackstop: the maxEvents backstop reports false
// with due events still queued.
func TestEngineDrainUntilBackstop(t *testing.T) {
	e := NewEngine()
	for i := Time(1); i <= 5; i++ {
		e.At(i, func() {})
	}
	if e.DrainUntil(5, 2) {
		t.Fatal("DrainUntil should report false on the backstop")
	}
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", e.Pending())
	}
}

// TestShardsDrainUntilDiscardPending: the sharded counterpart, with a
// post-cutoff cross-shard event sitting in a mailbox — DiscardPending
// must drop queued heap events and boxed route events alike.
func TestShardsDrainUntilDiscardPending(t *testing.T) {
	k := NewShards(2, 10, 2)
	var ran []Time
	k.At(0, 5, 0, func() {
		ran = append(ran, k.Now(0))
		// Due after the cutoff: lands in the 0→1 mailbox and must be
		// discarded, not executed.
		k.Cross(0, 1, 60, 0, func() { t.Error("post-cutoff cross event executed") })
	})
	k.At(1, 20, 1, func() { ran = append(ran, k.Now(1)) })
	k.At(1, 45, 1, func() { t.Error("post-cutoff event executed") })
	if !k.DrainUntil(1, 30, 1_000) {
		t.Fatal("DrainUntil hit the backstop")
	}
	if len(ran) != 2 || ran[0] != 5 || ran[1] != 20 {
		t.Fatalf("executed %v, want [5 20]", ran)
	}
	for s := 0; s < k.NumShards(); s++ {
		if k.Now(s) != 30 {
			t.Fatalf("shard %d clock = %d, want 30 (parked at cutoff)", s, k.Now(s))
		}
	}
	if n := k.DiscardPending(); n != 2 {
		t.Fatalf("DiscardPending = %d, want 2 (one heap event, one boxed)", n)
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending = %d after discard, want 0", k.Pending())
	}
}

// TestShardsDrainUntilMatchesDrainPrefix: the events DrainUntil
// executes are exactly the prefix (by canonical order) of what a full
// Drain executes — truncation must not reorder or skip pre-cutoff work.
func TestShardsDrainUntilMatchesDrainPrefix(t *testing.T) {
	build := func() (*Shards, *[]Time) {
		k := NewShards(2, 5, 4)
		var log []Time
		for _, spec := range []struct {
			s   int
			at  Time
			org int32
		}{{0, 2, 0}, {0, 9, 1}, {1, 4, 2}, {1, 9, 3}, {0, 17, 0}, {1, 23, 2}} {
			spec := spec
			k.At(spec.s, spec.at, spec.org, func() { log = append(log, spec.at) })
		}
		return k, &log
	}
	kFull, fullLog := build()
	if !kFull.Drain(1, 1_000) {
		t.Fatal("full drain did not quiesce")
	}
	kTrunc, truncLog := build()
	if !kTrunc.DrainUntil(1, 9, 1_000) {
		t.Fatal("DrainUntil hit the backstop")
	}
	want := (*fullLog)[:len(*truncLog)]
	for i, at := range *truncLog {
		if want[i] != at {
			t.Fatalf("truncated execution diverged at %d: got %v, want prefix of %v", i, *truncLog, *fullLog)
		}
	}
	if len(*truncLog) != 4 {
		t.Fatalf("executed %d events up to cutoff 9, want 4", len(*truncLog))
	}
}

// TestCutoffPostsAreCountedNotQueued: with SetCutoff, a post due after
// the cutoff — single, fan or func — is counted in PastCutoff and
// queued nowhere, and the run up to the cutoff is the run without one:
// the same events with the same keys (a dropped post still draws its
// keys), the same Executed(). What the reference run still has queued
// at the cutoff is exactly what the cut run counted, so the discard that
// follows a truncated drain drops nothing. On Engine and on Shards at 1
// and 7 shards with 1 and 2 workers, in both fan modes.
func TestCutoffPostsAreCountedNotQueued(t *testing.T) {
	const cutoff = 22
	type outcome struct {
		executed   uint64
		logs       [][]fanRec
		pending    int
		records    int
		pastCutoff uint64
		dropped    int
	}
	check := func(t *testing.T, ref, cut outcome) {
		t.Helper()
		if ref.pending == 0 || ref.pastCutoff != 0 {
			t.Fatalf("reference run: %d events pending at the cutoff, %d counted past it", ref.pending, ref.pastCutoff)
		}
		if cut.executed != ref.executed || !reflect.DeepEqual(cut.logs, ref.logs) {
			t.Fatalf("the cut run executed %d events, the reference %d, or a different (At, key, Cell) sequence", cut.executed, ref.executed)
		}
		if cut.pastCutoff != uint64(ref.records) || cut.pending != 0 || cut.records != 0 || cut.dropped != 0 {
			t.Fatalf("counted %d records past the cutoff for the reference's %d queued; %d events (%d records) queued and %d discarded at the cutoff, want 0",
				cut.pastCutoff, ref.records, cut.pending, cut.records, cut.dropped)
		}
	}
	w := newFanWorld(140, 1)
	for _, fans := range []bool{false, true} {
		run := func(cut bool) outcome {
			e, s := fanOnEngine(w, fans) // seeds nothing past the cutoff
			if cut {
				e.SetCutoff(cutoff)
			}
			if !e.DrainUntil(cutoff, math.MaxUint64) {
				t.Fatal("DrainUntil hit a backstop it was not given")
			}
			f := e.Footprint()
			return outcome{e.Executed(), s.logs, e.Pending(), f.Records, f.PastCutoff, e.DiscardPending()}
		}
		t.Run(fmt.Sprintf("Engine/fans=%v", fans), func(t *testing.T) { check(t, run(false), run(true)) })
	}
	for _, shards := range []int{1, 7} {
		w := newFanWorld(140, shards)
		for _, workers := range []int{1, 2} {
			for _, fans := range []bool{false, true} {
				run := func(cut bool) outcome {
					k, s := fanOnShards(w, fans)
					if cut {
						k.SetCutoff(cutoff)
					}
					if !k.DrainUntil(workers, cutoff, math.MaxUint64) {
						t.Fatal("DrainUntil hit a backstop it was not given")
					}
					f := k.Footprint()
					return outcome{k.Executed(), s.logs, k.Pending(), f.Records, f.PastCutoff, k.DiscardPending()}
				}
				t.Run(fmt.Sprintf("Shards/shards=%d/workers=%d/fans=%v", shards, workers, fans), func(t *testing.T) { check(t, run(false), run(true)) })
			}
		}
	}
}

// TestCutoffBoundary: a post at exactly the cutoff is queued and runs;
// one a tick later is counted and dropped, and the post after it gets
// the key it would get with no cutoff set — for a single post, a fan
// record and a func event, on both kernels (two shards, a cross post;
// one worker, since both shards log to one list).
func TestCutoffBoundary(t *testing.T) {
	const cutoff = 10
	w := &fanWorld{nbrs: [][]int32{{1}, {0}, {0, 1}}, shards: 2}
	type rec struct {
		at  Time
		key uint64
	}
	for _, name := range []string{"Engine", "Shards"} {
		run := func(cut bool) ([]rec, Footprint) {
			var got []rec
			h := handlerFunc(func(ev Event, _ Attachment) { got = append(got, rec{ev.At, ev.key}) })
			var p ports
			var drain func()
			var foot func() Footprint
			if name == "Engine" {
				e := NewEngine()
				if cut {
					e.SetCutoff(cutoff)
				}
				e.SetFanout(w)
				e.Handle(KindMessage, h)
				p, drain, foot = enginePorts(e), func() { e.DrainUntil(cutoff, math.MaxUint64) }, e.Footprint
			} else {
				k := NewShards(2, 5, 3)
				if cut {
					k.SetCutoff(cutoff)
				}
				k.SetFanout(w)
				k.Handle(KindMessage, h)
				p, drain, foot = shardsPorts(k, w), func() { k.DrainUntil(1, cutoff, math.MaxUint64) }, k.Footprint
			}
			// Cell 2 (shard 1 of 2) posts to cell 0 (shard 0), fans to
			// cells 0 and 1 (both shard 0) and queues funcs of its own.
			for _, at := range []Time{cutoff, cutoff + 1, cutoff} {
				p.post(2, 0, at, Event{Kind: KindMessage}, Attachment{Words: []uint64{uint64(at)}})
				p.postFan(2, at, Event{Kind: KindMessage}, 0, 0b11)
				p.fn(2, at, func() { got = append(got, rec{at, 0}) })
			}
			drain()
			return got, foot()
		}
		ref, refFoot := run(false)
		got, f := run(true)
		if !reflect.DeepEqual(got, ref) || len(got) != 8 {
			t.Fatalf("%s: executed %v, want the %d events at the cutoff the reference ran, %v", name, got, len(ref), ref)
		}
		// The two attachments that are queued hold the same word, and
		// the dropped one between them is not stored, so the second
		// shares the first's slot; the reference stored all three.
		if f.PastCutoff != 3 || refFoot.PastCutoff != 0 || f.AttParked != 1 || f.AttShared != 1 || refFoot.AttParked != 3 {
			t.Fatalf("%s: %d records counted past the cutoff, want 3; attachments %d stored and %d shared, want 1 and 1 (the reference stored %d)",
				name, f.PastCutoff, f.AttParked, f.AttShared, refFoot.AttParked)
		}
	}
}

// TestCutoffKeepsChecks: a post past the cutoff still fails the checks
// every post passes — into the past on Engine, inside the lookahead
// across shards.
func TestCutoffKeepsChecks(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s past the cutoff did not panic", name)
			}
		}()
		f()
	}
	e := NewEngine()
	e.SetCutoff(10)
	e.Run(20)
	mustPanic("a post into the past", func() { e.Post(15, 0, Event{Kind: KindMessage}, Attachment{}) })
	mustPanic("a func into the past", func() { e.AtOrigin(15, 0, func() {}) })
	k := NewShards(2, 5, 2)
	k.SetCutoff(10)
	k.Run(1, 10)
	mustPanic("a cross post inside the lookahead", func() { k.PostCross(0, 1, 12, 0, Event{Kind: KindMessage}, Attachment{}) })
	mustPanic("a cross func inside the lookahead", func() { k.Cross(0, 1, 12, 0, func() {}) })
}
