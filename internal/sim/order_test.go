package sim

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"testing"
)

// The queue's order property: whichever of the near heap, the far log
// or a sorted batch holds a record, the records run in exactly the
// (At, key) order of a model that keeps every pending event in one
// slice and takes the least one by a linear scan, drawing keys as the
// kernels draw them.

// refKernel is that model, driven through the same ports as a kernel.
type refKernel struct {
	w      *fanWorld
	h      Handler
	now    Time
	cutoff Time
	cnt    []uint64
	recs   []refRec
}

// refRec is one pending event of the model: fan records are expanded
// at the post, attachments copied.
type refRec struct {
	ev    Event
	words []uint64
	seq   uint64
	fn    func()
}

func newRefKernel(w *fanWorld) *refKernel {
	return &refKernel{w: w, cutoff: math.MaxInt64, cnt: make([]uint64, len(w.nbrs))}
}

func (r *refKernel) add(at Time, origin int32, ev Event, att Attachment, fn func()) {
	r.cnt[origin]++
	if at > r.cutoff {
		return
	}
	ev.At, ev.key = at, packKey(origin, r.cnt[origin])
	r.recs = append(r.recs, refRec{ev: ev, words: slices.Clone(att.Words), seq: att.Seq, fn: fn})
}

func (r *refKernel) ports() ports {
	return ports{
		now: func(int32) Time { return r.now },
		post: func(from, to int32, at Time, ev Event, att Attachment) {
			ev.Cell = to
			r.add(at, from, ev, att, nil)
		},
		postFan: func(from int32, at Time, ev Event, word int, mask uint64) {
			for ; mask != 0; mask &= mask - 1 {
				ev.Cell = r.w.nbrs[from][word*64+bits.TrailingZeros64(mask)]
				r.add(at, from, ev, Attachment{}, nil)
			}
		},
		fn: func(cell int32, at Time, f func()) { r.add(at, cell, Event{}, Attachment{}, f) },
	}
}

// run executes every event due at or before until, least (At, key)
// first, and leaves the clock at until when it is behind.
func (r *refKernel) run(until Time) {
	for {
		best := -1
		for i := range r.recs {
			if ev := &r.recs[i].ev; ev.At <= until && (best < 0 || less(ev, &r.recs[best].ev)) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		rec := r.recs[best]
		r.recs[best] = r.recs[len(r.recs)-1]
		r.recs = r.recs[:len(r.recs)-1]
		r.now = rec.ev.At
		if rec.fn != nil {
			rec.fn()
		} else {
			r.h.HandleEvent(rec.ev, Attachment{Words: rec.words, Seq: rec.seq})
		}
	}
	r.now = max(r.now, until)
}

// orderSched is a random schedule that is a pure function of per-cell
// streams, built to reach every part of the queue: near and far posts,
// fan records near and far, posts at exactly the near horizon and the
// batch's edges, many records due at one far tick, zero-delay posts that
// sort before the rest of a fan record being delivered (which then goes
// back on the heap), func events, and due times close to MaxInt64.
type orderSched struct {
	w *fanWorld
	T Time
	ports
	rng  []Rand
	logs [][]fanRec // per shard, in execution order
}

func newOrderSched(w *fanWorld, T Time) *orderSched {
	s := &orderSched{w: w, T: T, rng: make([]Rand, len(w.nbrs)), logs: make([][]fanRec, w.shards)}
	for c := range s.rng {
		s.rng[c] = SubstreamValue(11, uint64(c))
	}
	return s
}

func (s *orderSched) log(ev Event, cell int32, att Attachment) {
	rec := fanRec{at: ev.At, key: ev.key, cell: cell, kind: ev.Kind, sum: att.Seq + uint64(ev.Ch)<<32}
	for _, x := range att.Words {
		rec.sum = rec.sum*31 + x
	}
	sh := s.w.shardOf(cell)
	s.logs[sh] = append(s.logs[sh], rec)
}

// latest is the latest due time the schedule uses: the end of time.
const latest = math.MaxInt64

// later is now+d, saturated at latest.
func later(now, d Time) Time {
	if now > latest-d {
		return latest
	}
	return now + d
}

// send posts ev from cell c to cell to at at — to c itself when at is
// too close to now for another cell (a saturated due time).
func (s *orderSched) send(c, to int32, now, at Time, ev Event, att Attachment) {
	if at-now < s.T {
		to = c
	}
	s.post(c, to, at, ev, att)
}

// fanOut sends ev to a random subset of c's neighbours at at, as fan
// records, or to c alone when at is too close to now.
func (s *orderSched) fanOut(c int32, now, at Time, ev Event, r *Rand) {
	if at-now < s.T {
		s.post(c, c, at, ev, Attachment{})
		return
	}
	n := len(s.w.nbrs[c])
	for w := 0; w*64 < n; w++ {
		if mask := FanWord(nil, n, w) & r.Uint64(); mask != 0 {
			s.postFan(c, at, ev, w, mask)
		}
	}
}

func (s *orderSched) HandleEvent(ev Event, att Attachment) {
	c := ev.Cell
	s.log(ev, c, att)
	if ev.T == 0 || ev.Kind != KindMessage {
		return
	}
	r := &s.rng[c]
	now := s.now(c)
	child := Event{Kind: KindMessage, T: ev.T - 1, Ch: int32(r.Intn(1000))}
	leaf := Event{Kind: KindMessage, Ch: child.Ch}
	nb := s.w.nbrs[c]
	to := nb[r.Intn(len(nb))]
	switch r.Intn(10) {
	case 0:
		s.fanOut(c, now, later(now, s.T+Time(r.Intn(3))), child, r)
	case 1:
		s.fanOut(c, now, later(now, nearSpan+Time(r.Intn(1500))), leaf, r)
	case 2:
		words := []uint64{r.Uint64(), r.Uint64()}
		s.send(c, to, now, later(now, s.T+Time(r.Intn(4))), child, Attachment{Words: words, Seq: uint64(c)})
		words[0] = 0xdead // the kernel copied them
	case 3:
		// A hop up to 3000 ticks out that keeps the time-to-live, so that
		// chains reach across many batches.
		child.T = ev.T
		s.send(c, to, now, later(now, s.T+Time(r.Intn(3000))), child, Attachment{})
	case 4:
		// Due now: sorts before the rest of a fan record being delivered
		// when c is numbered below the record's origin.
		s.post(c, c, now, Event{Kind: KindRelease, Ch: child.Ch}, Attachment{})
	case 5:
		at := later(now, Time(r.Intn(5)))
		if r.Intn(2) == 0 {
			at = later(now, 100+Time(r.Intn(1000)))
		}
		s.fn(c, at, func() { s.log(Event{At: at, Kind: KindFunc}, c, Attachment{}) })
	case 6:
		for _, d := range []Time{nearSpan - 1, nearSpan, nearSpan + 1, nearSpan + batchSpan - 1, nearSpan + batchSpan, nearSpan + batchSpan + 1} {
			s.send(c, to, now, later(now, d), leaf, Attachment{})
		}
	case 7:
		// A far tick that is a multiple of 64, where many cells' bursts
		// meet in no particular key order.
		at := later(now, 320-now%64)
		for i := 0; i < 12; i++ {
			leaf.Ch = int32(i)
			s.send(c, nb[r.Intn(len(nb))], now, at, leaf, Attachment{})
		}
	default:
		s.send(c, to, now, later(now, s.T+Time(r.Intn(2))), child, Attachment{})
	}
}

// seed posts phase p's first events: near fan records from every other
// cell, a far post from every cell and some func events (p 0, at time
// 0), or — after the mid-run discard — near and far posts and a tail due
// close to MaxInt64 (p 1, from time mid).
func (s *orderSched) seed(p int, mid Time) {
	for c := int32(0); int(c) < len(s.w.nbrs); c++ {
		nb := s.w.nbrs[c]
		if p == 0 {
			s.post(c, nb[0], 100+Time(97*c%6000), Event{Kind: KindMessage, T: 3}, Attachment{})
		} else {
			s.post(c, nb[0], mid+1500+Time(61*c%6000), Event{Kind: KindMessage, T: 3}, Attachment{})
		}
		switch {
		case p == 0 && c%2 == 0:
			s.postFan(c, s.T+Time(c%7), Event{Kind: KindMessage, T: 3}, 0, FanWord(nil, len(nb), 0))
		case p == 0 && c%11 == 3:
			at := Time(13 * c % 900)
			s.fn(c, at, func() { s.log(Event{At: at, Kind: KindFunc}, c, Attachment{}) })
		case p == 1 && c%3 == 0:
			s.post(c, nb[0], mid+s.T+Time(c%5), Event{Kind: KindMessage, T: 3}, Attachment{})
		case p == 1 && c%13 == 2:
			s.post(c, nb[0], latest-3000+Time(c), Event{Kind: KindMessage, T: 3}, Attachment{})
		}
	}
}

// orderRun is what a run of the schedule leaves.
type orderRun struct {
	logs      [][]fanRec
	discarded int
	executed  uint64
	foot      Footprint
}

// orderPhases runs the schedule on a kernel: seed, run to mid, discard
// what is queued, seed again, drain.
type orderKernel struct {
	runUntil func(Time)
	drain    func()
	discard  func() int
	executed func() uint64
	foot     func() Footprint
}

func runOrder(s *orderSched, k orderKernel) orderRun {
	const mid = 700
	s.seed(0, mid)
	k.runUntil(mid)
	discarded := k.discard()
	s.seed(1, mid)
	k.drain()
	return orderRun{s.logs, discarded, k.executed(), k.foot()}
}

// TestQueueMatchesReference runs the schedule on the model, on Engine
// and on Shards at 1 and 7 shards with 1 and 2 workers, without a cutoff
// and with one: Engine executes exactly the model's sequence, and every
// cell on Shards the model's sequence of that cell. (A shard's own
// sequence need not ascend: a zero-delay post can sort before the event
// that made it, and runs next.)
// Each kernel discards what the model held mid-run, and ends with its
// far logs empty, holding their own pages only, every pool page back,
// having refilled batches on the way.
func TestQueueMatchesReference(t *testing.T) {
	const T = 5
	for _, cutoff := range []Time{math.MaxInt64, 4000} {
		w := newFanWorld(140, 1)
		s := newOrderSched(w, T)
		ref := newRefKernel(w)
		ref.cutoff, ref.h = cutoff, s
		s.ports = ref.ports()
		want := runOrder(s, orderKernel{
			runUntil: ref.run,
			drain:    func() { ref.run(math.MaxInt64) },
			discard:  func() int { n := len(ref.recs); ref.recs = ref.recs[:0]; return n },
			executed: func() uint64 { return 0 },
			foot:     func() Footprint { return Footprint{} },
		})
		if n := len(want.logs[0]); n < 5000 || want.discarded < 500 {
			t.Fatalf("the schedule is vacuous: %d events, %d discarded", n, want.discarded)
		}
		wantCells := byCell(want.logs)
		check := func(t *testing.T, got orderRun, queues int) {
			t.Helper()
			if got.discarded != want.discarded || got.executed != uint64(len(want.logs[0])) {
				t.Fatalf("discarded %d and executed %d events; the model %d and %d", got.discarded, got.executed, want.discarded, len(want.logs[0]))
			}
			if !reflect.DeepEqual(byCell(got.logs), wantCells) {
				t.Fatal("some cell's sequence differs from the model's")
			}
			if f := got.foot; f.Records != 0 || f.LogRecords != 0 || f.LogPages > queues || f.PoolOut != 0 || f.Refills == 0 || f.Batched == 0 {
				t.Fatalf("footprint after the drain: %+v", f)
			}
		}
		t.Run(fmt.Sprintf("Engine/cutoff=%d", cutoff), func(t *testing.T) {
			s := newOrderSched(w, T)
			e := NewEngine()
			e.SetCutoff(cutoff)
			e.SetFanout(w)
			e.Handle(KindMessage, s)
			e.Handle(KindRelease, s)
			s.ports = enginePorts(e)
			got := runOrder(s, orderKernel{
				runUntil: func(at Time) { e.DrainUntil(at, math.MaxUint64) },
				drain:    func() { e.Drain(math.MaxUint64) },
				discard:  e.DiscardPending,
				executed: e.Executed,
				foot:     e.Footprint,
			})
			if !reflect.DeepEqual(got.logs, want.logs) {
				t.Fatal("the engine's sequence differs from the model's")
			}
			check(t, got, 1)
		})
		for _, shards := range []int{1, 7} {
			w := newFanWorld(140, shards)
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("Shards/shards=%d/workers=%d/cutoff=%d", shards, workers, cutoff), func(t *testing.T) {
					s := newOrderSched(w, T)
					k := NewShards(shards, T, len(w.nbrs))
					k.SetCutoff(cutoff)
					k.SetFanout(w)
					k.Handle(KindMessage, s)
					k.Handle(KindRelease, s)
					s.ports = shardsPorts(k, w)
					check(t, runOrder(s, orderKernel{
						runUntil: func(at Time) { k.DrainUntil(workers, at, math.MaxUint64) },
						drain:    func() { k.Drain(workers, math.MaxUint64) },
						discard:  k.DiscardPending,
						executed: k.Executed,
						foot:     k.Footprint,
					}), shards)
				})
			}
		}
	}
}

// FuzzQueueOrder decodes bytes into posts — single and fan records, due
// now, near, far or close to MaxInt64, some of whose deliveries post a
// zero-delay event that sorts before the rest of their fan record — and
// steps, runs, cutoffs and discards on an Engine, checking every event
// it executes, as it executes it, against a model of the pending events
// that takes the least (At, key) by a linear scan. The queue starts, and
// starts again after each discard, with smallQueue records due late, so
// that it is never small and far posts go to the far log. Then the same
// posts go up front to three shards, whose fan records each stay in
// their shard, and two workers drain them under a watchdog, each shard
// checked against a model of its own. The seed corpus is in
// testdata/fuzz/FuzzQueueOrder.
func FuzzQueueOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		const origins = 8
		w := &fanWorld{nbrs: make([][]int32, origins), shards: 1}
		w3 := &fanWorld{nbrs: make([][]int32, origins), shards: 3}
		for o := range w.nbrs {
			for c := int32(0); c < origins; c++ {
				w.nbrs[o] = append(w.nbrs[o], c)
				if w3.shardOf(c) == w3.shardOf(int32(o)) {
					w3.nbrs[o] = append(w3.nbrs[o], c)
				}
			}
		}
		// take checks that ev is the least of ref's pending events, noting
		// the first failure in *fail, and removes it.
		take := func(ref *refKernel, fail *string, ev Event) {
			i := slices.IndexFunc(ref.recs, func(r refRec) bool { return r.ev.key == ev.key && r.ev.At == ev.At })
			for j := range ref.recs {
				if *fail == "" && less(&ref.recs[j].ev, &ev) {
					*fail = fmt.Sprintf("ran (%d, %#x) with (%d, %#x) pending", ev.At, ev.key, ref.recs[j].ev.At, ref.recs[j].ev.key)
				}
			}
			if i < 0 {
				if *fail == "" {
					*fail = fmt.Sprintf("ran (%d, %#x), which the model does not hold", ev.At, ev.key)
				}
				return
			}
			ref.recs = slices.Delete(ref.recs, i, i+1)
		}
		after := func(now, d Time) Time { // now+d, saturated
			if now > math.MaxInt64-d {
				return math.MaxInt64
			}
			return now + d
		}
		due := func(now Time, class, b byte) Time {
			switch class % 4 {
			case 0:
				return now
			case 1:
				return after(now, Time(b%nearSpan))
			case 2:
				return after(now, nearSpan+Time(b)*17)
			}
			return max(now, math.MaxInt64-Time(b))
		}
		ops := data

		e := NewEngine()
		e.SetFanout(w)
		ref := newRefKernel(w)
		var fail string
		var h handlerFunc = func(ev Event, _ Attachment) {
			take(ref, &fail, ev)
			if ev.Ch == 1 { // answer now, as origin 0: before the rest of a fan record of a higher origin
				ref.add(e.Now(), 0, Event{Kind: KindRelease}, Attachment{}, nil)
				e.Post(e.Now(), 0, Event{Kind: KindRelease}, Attachment{})
			}
		}
		e.Handle(KindMessage, h)
		e.Handle(KindRelease, h)
		ballast := func() {
			for i := range smallQueue {
				at := max(e.Now(), math.MaxInt64-1<<16+Time(i))
				ev := Event{Kind: KindRelease, Cell: int32(i % origins)}
				ref.add(at, int32(i%origins), ev, Attachment{}, nil)
				e.Post(at, int32(i%origins), ev, Attachment{})
			}
		}
		ballast()
		for ; len(data) >= 3 && fail == ""; data = data[3:] {
			op, a, b := data[0], data[1], data[2]
			origin := int32(a % origins)
			switch op % 8 {
			case 0, 1, 2:
				at := due(e.Now(), a>>3, b)
				ev := Event{Kind: KindMessage, Cell: int32(b % origins), Ch: int32(op>>3) % 2}
				ref.add(at, origin, ev, Attachment{}, nil)
				e.Post(at, origin, ev, Attachment{})
			case 3:
				at := due(e.Now(), a>>3, b)
				ev := Event{Kind: KindMessage, Ch: int32(op>>3) % 2}
				ref.ports().postFan(origin, at, ev, 0, uint64(b))
				e.PostFan(at, origin, ev, 0, uint64(b))
			case 4:
				for i := 0; i < int(a%16) && e.Step(); i++ {
				}
			case 5:
				e.Run(after(e.Now(), Time(a)*Time(b)))
			case 6:
				if n := e.DiscardPending(); n != len(ref.recs) && fail == "" {
					fail = fmt.Sprintf("discarded %d events of the model's %d", n, len(ref.recs))
				}
				ref.recs = ref.recs[:0]
				ballast()
			case 7:
				cut := after(e.Now(), Time(a)*64+Time(b))
				e.SetCutoff(cut)
				ref.cutoff = cut
			}
		}
		e.Drain(math.MaxUint64)
		if fail == "" && len(ref.recs) != 0 {
			fail = fmt.Sprintf("the drain left %d of the model's events unrun", len(ref.recs))
		}
		if fail != "" {
			t.Fatal(fail)
		}

		k := NewShards(w3.shards, 10, origins)
		k.SetFanout(w3)
		refs, fails := make([]*refKernel, w3.shards), make([]string, w3.shards)
		for s := range refs {
			refs[s] = newRefKernel(w3)
		}
		var h3 handlerFunc = func(ev Event, _ Attachment) {
			s := w3.shardOf(ev.Cell)
			take(refs[s], &fails[s], ev)
			if ev.Ch == 1 { // answer now, as the shard's lowest origin
				low := w3.nbrs[ev.Cell][0]
				answer := Event{Kind: KindRelease, Cell: low}
				refs[s].add(k.Now(s), low, answer, Attachment{}, nil)
				k.Post(s, k.Now(s), low, answer, Attachment{})
			}
		}
		k.Handle(KindMessage, h3)
		k.Handle(KindRelease, h3)
		post := func(at Time, origin int32, ev Event) {
			s := w3.shardOf(origin)
			ev.Cell = origin
			refs[s].add(at, origin, ev, Attachment{}, nil)
			k.Post(s, at, origin, ev, Attachment{})
		}
		for i := range w3.shards * smallQueue {
			post(math.MaxInt64-1<<16+Time(i), int32(i%origins), Event{Kind: KindRelease})
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			op, a, b := ops[0], ops[1], ops[2]
			origin := int32(a % origins)
			ev := Event{Kind: KindMessage, Ch: int32(op>>3) % 2}
			switch op % 8 {
			case 0, 1, 2:
				post(due(0, a>>3, b), origin, ev)
			case 3:
				s, at, mask := w3.shardOf(origin), due(0, a>>3, b), uint64(b)&(1<<len(w3.nbrs[origin])-1)
				refs[s].ports().postFan(origin, at, ev, 0, mask)
				k.PostFan(s, s, at, origin, ev, 0, mask)
			}
		}
		watchdog(t, func() { k.Drain(2, math.MaxUint64) })
		for s, ref := range refs {
			if fails[s] == "" && len(ref.recs) != 0 {
				fails[s] = fmt.Sprintf("the drain left %d of the model's events unrun", len(ref.recs))
			}
			if fails[s] != "" {
				t.Fatalf("shard %d of %d: %s", s, w3.shards, fails[s])
			}
		}
	})
}
