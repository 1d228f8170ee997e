package sim

import (
	"math"
	"math/bits"
	"reflect"
	"testing"
)

// The fan-record property: a schedule that sends to many neighbours at
// once executes identically whether each send is queued as fan records
// (PostFan) or as the one event per destination they stand for. The
// schedule is random but a pure function of per-cell random streams, so
// it unfolds the same way on every kernel and in both modes as long as
// every cell sees the same events in the same order — which is the
// property.

// fanWorld is the cells of a test schedule: arbitrary sorted neighbour
// lists, a few of them wider than one mask word, and contiguous shards.
type fanWorld struct {
	nbrs   [][]int32
	shards int
}

func (w *fanWorld) Neighbor(origin int32, i int) int32 { return w.nbrs[origin][i] }

func (w *fanWorld) shardOf(cell int32) int { return int(cell) * w.shards / len(w.nbrs) }

func newFanWorld(cells, shards int) *fanWorld {
	r := NewRand(99)
	w := &fanWorld{nbrs: make([][]int32, cells), shards: shards}
	for c := range w.nbrs {
		want := 3 + r.Intn(9)
		if c%17 == 0 {
			want = 70 + r.Intn(60) // two or three mask words
		}
		for o := 0; o < cells; o++ {
			// Keep each other cell with probability want/cells: sorted
			// by construction.
			if o != c && r.Intn(cells) < want {
				w.nbrs[c] = append(w.nbrs[c], int32(o))
			}
		}
		if len(w.nbrs[c]) == 0 {
			w.nbrs[c] = []int32{int32((c + 1) % cells)}
		}
	}
	return w
}

// fanRec is one executed event as a test logs it.
type fanRec struct {
	at   Time
	key  uint64
	cell int32
	kind Kind
	sum  uint64 // attachment checksum
}

// ports is how a test schedule reaches the kernel under it, hiding
// whether that is an Engine or Shards.
type ports struct {
	now     func(cell int32) Time
	post    func(from, to int32, at Time, ev Event, att Attachment)
	postFan func(from int32, at Time, ev Event, word int, mask uint64)
	fn      func(cell int32, at Time, f func())
}

func enginePorts(e *Engine) ports {
	return ports{
		now: func(int32) Time { return e.Now() },
		post: func(from, to int32, at Time, ev Event, att Attachment) {
			ev.Cell = to
			e.Post(at, from, ev, att)
		},
		postFan: func(from int32, at Time, ev Event, word int, mask uint64) { e.PostFan(at, from, ev, word, mask) },
		fn:      func(cell int32, at Time, f func()) { e.AtOrigin(at, cell, f) },
	}
}

func shardsPorts(k *Shards, w *fanWorld) ports {
	return ports{
		now: func(cell int32) Time { return k.Now(w.shardOf(cell)) },
		post: func(from, to int32, at Time, ev Event, att Attachment) {
			ev.Cell = to
			k.PostCross(w.shardOf(from), w.shardOf(to), at, from, ev, att)
		},
		postFan: func(from int32, at Time, ev Event, word int, mask uint64) {
			// One record per maximal run of same-shard destinations.
			for mask != 0 {
				dst := w.shardOf(w.nbrs[from][word*64+bits.TrailingZeros64(mask)])
				run := mask & -mask
				for rest := mask &^ run; rest != 0 && w.shardOf(w.nbrs[from][word*64+bits.TrailingZeros64(rest)]) == dst; rest &= rest - 1 {
					run |= rest & -rest
				}
				k.PostFan(w.shardOf(from), dst, at, from, ev, word, run)
				mask &^= run
			}
		},
		fn: func(cell int32, at Time, f func()) { k.At(w.shardOf(cell), at, cell, f) },
	}
}

// fanSched drives one schedule over one kernel; fans selects the mode.
type fanSched struct {
	w    *fanWorld
	fans bool
	T    Time
	ports

	rng  []Rand     // per cell
	logs [][]fanRec // per shard, in execution order
	// onEvent, if set, runs first in every handler call (shard 0 only
	// touches it in the tests that set it).
	onEvent func()
}

func newFanSched(w *fanWorld, fans bool, T Time) *fanSched {
	s := &fanSched{w: w, fans: fans, T: T, rng: make([]Rand, len(w.nbrs)), logs: make([][]fanRec, w.shards)}
	for c := range s.rng {
		s.rng[c] = SubstreamValue(5, uint64(c))
	}
	return s
}

// multicast sends ev from cell to the neighbours mask selects, at at.
func (s *fanSched) multicast(from int32, at Time, ev Event, mask []uint64) {
	n := len(s.w.nbrs[from])
	for w := 0; w*64 < n; w++ {
		word := FanWord(mask, n, w)
		if s.fans {
			s.postFan(from, at, ev, w, word)
			continue
		}
		for ; word != 0; word &= word - 1 {
			s.post(from, s.w.nbrs[from][w*64+bits.TrailingZeros64(word)], at, ev, Attachment{})
		}
	}
}

func (s *fanSched) log(ev Event, cell int32, att Attachment) {
	rec := fanRec{at: ev.At, key: ev.key, cell: cell, kind: ev.Kind, sum: att.Seq}
	for _, x := range att.Words {
		rec.sum = rec.sum*31 + x
	}
	sh := s.w.shardOf(cell)
	s.logs[sh] = append(s.logs[sh], rec)
}

// HandleEvent logs the event and, while its time-to-live (ev.T) lasts,
// makes the receiving cell schedule more: multicasts to a random subset,
// broadcasts, an attachment-carrying message, a func event and — the
// case the push-back rule exists for — an event at the current time,
// which sorts before the rest of a fan record still being delivered
// whenever the receiving cell is numbered below the record's origin.
func (s *fanSched) HandleEvent(ev Event, att Attachment) {
	if s.onEvent != nil {
		s.onEvent()
	}
	c := ev.Cell
	s.log(ev, c, att)
	if ev.T == 0 || ev.Kind != KindMessage {
		return
	}
	r := &s.rng[c]
	now := s.now(c)
	child := Event{Kind: KindMessage, T: ev.T - 1, Ch: int32(r.Intn(1000))}
	n := len(s.w.nbrs[c])
	switch r.Intn(8) {
	case 0, 1:
		mask := make([]uint64, (n+63)/64)
		for i := 0; i < n; i++ {
			if r.Intn(3) != 0 {
				mask[i/64] |= 1 << (uint(i) % 64)
			}
		}
		s.multicast(c, now+s.T+Time(r.Intn(3)), child, mask)
	case 2:
		s.multicast(c, now+s.T, child, nil)
	case 3:
		to := s.w.nbrs[c][r.Intn(n)]
		words := []uint64{r.Uint64(), r.Uint64()}
		s.post(c, to, now+s.T+Time(r.Intn(4)), child, Attachment{Words: words, Seq: uint64(c)})
		words[0], words[1] = 0xdead, 0xdead // the kernel copied them
	case 4:
		s.post(c, c, now, Event{Kind: KindRelease, Ch: child.Ch}, Attachment{})
	case 5:
		at := now + Time(r.Intn(5))
		s.fn(c, at, func() { s.log(Event{At: at, Kind: KindFunc}, c, Attachment{}) })
	}
}

// seed posts the initial broadcasts.
func (s *fanSched) seed() {
	for c := 0; c < len(s.w.nbrs); c += 3 {
		s.multicast(int32(c), s.T+Time(c%7), Event{Kind: KindMessage, T: 3}, nil)
	}
}

func fanOnEngine(w *fanWorld, fans bool) (*Engine, *fanSched) {
	e := NewEngine()
	s := newFanSched(w, fans, 5)
	e.SetFanout(w)
	e.Handle(KindMessage, s)
	e.Handle(KindRelease, s)
	s.ports = enginePorts(e)
	s.seed()
	return e, s
}

func fanOnShards(w *fanWorld, fans bool) (*Shards, *fanSched) {
	s := newFanSched(w, fans, 5)
	k := NewShards(w.shards, s.T, len(w.nbrs))
	k.SetFanout(w)
	k.Handle(KindMessage, s)
	k.Handle(KindRelease, s)
	s.ports = shardsPorts(k, w)
	s.seed()
	return k, s
}

// byCell regroups per-shard logs by cell: what must not depend on the
// kernel or the shard count at all.
func byCell(logs [][]fanRec) map[int32][]fanRec {
	out := map[int32][]fanRec{}
	for _, l := range logs {
		for _, r := range l {
			out[r.cell] = append(out[r.cell], r)
		}
	}
	return out
}

// TestFanRecordsMatchSinglePosts is the property on both kernels: the
// executed (At, key, Cell) sequence, Executed(), Pending() after every
// step (Engine) or at every barrier (Shards) and what DiscardPending
// drops after a truncated drain are the same in both modes; and every
// cell's own sequence is the same on Engine and on Shards at 1 and 7
// shards with 1 and 2 workers — across shard boundaries, through the
// mailboxes and outRoute.merge.
func TestFanRecordsMatchSinglePosts(t *testing.T) {
	const cutoff = 22
	type count struct {
		executed uint64
		pending  int
	}
	var ref map[int32][]fanRec

	t.Run("Engine", func(t *testing.T) {
		w := newFanWorld(140, 1)
		run := func(fans bool) ([][]fanRec, []count) {
			e, s := fanOnEngine(w, fans)
			var counts []count
			for e.Step() {
				counts = append(counts, count{e.Executed(), e.Pending()})
			}
			return s.logs, counts
		}
		plain, plainCounts := run(false)
		fan, fanCounts := run(true)
		if len(plain[0]) < 5000 {
			t.Fatalf("the schedule is vacuous: %d events", len(plain[0]))
		}
		if !reflect.DeepEqual(fan, plain) {
			t.Fatal("fan records executed a different (At, key, Cell) sequence than single posts")
		}
		if !reflect.DeepEqual(fanCounts, plainCounts) {
			t.Fatal("Executed()/Pending() after some step differ between the modes")
		}
		ref = byCell(plain)

		// The same in one Drain, where a record's deliveries run back to
		// back: far fewer records cross the heap than events execute.
		pe, pSched := fanOnEngine(w, false)
		fe, fSched := fanOnEngine(w, true)
		if !pe.Drain(math.MaxUint64) || !fe.Drain(math.MaxUint64) || !reflect.DeepEqual(fSched.logs, plain) || !reflect.DeepEqual(pSched.logs, plain) {
			t.Fatal("Drain executed a different sequence than the Step loop")
		}
		pf, ff := pe.Footprint(), fe.Footprint()
		if pf.Pops != pe.Executed() || ff.Pops > pf.Pops/3 || ff.PeakRecords > pf.PeakRecords/3 || ff.PeakEvents != pf.PeakEvents {
			t.Fatalf("fan records did not shrink the queue: pops %d vs %d, peak records %d vs %d, peak events %d vs %d",
				ff.Pops, pf.Pops, ff.PeakRecords, pf.PeakRecords, ff.PeakEvents, pf.PeakEvents)
		}

		// Truncated: a backstop that trips inside a fan record, then the
		// cutoff, then the discard.
		trunc := func(fans bool) (steps [3]count, dropped int, logs [][]fanRec) {
			e, s := fanOnEngine(w, fans)
			if e.DrainUntil(cutoff, 777) {
				t.Fatal("the backstop did not trip")
			}
			steps[0] = count{e.Executed(), e.Pending()}
			// Stop from inside a handler: Run returns after that event.
			seen := 0
			s.onEvent = func() {
				if seen++; seen == 100 {
					e.Stop()
				}
			}
			e.Run(cutoff)
			s.onEvent = nil
			steps[1] = count{e.Executed(), e.Pending()}
			if !e.DrainUntil(cutoff, math.MaxUint64) {
				t.Fatal("DrainUntil hit a backstop it was not given")
			}
			steps[2] = count{e.Executed(), e.Pending()}
			return steps, e.DiscardPending(), s.logs
		}
		ps, pd, pl := trunc(false)
		fs, fd, fl := trunc(true)
		if ps[0].executed != 777 || ps[1].executed <= 777+100 || ps[1].executed >= ps[2].executed || pd == 0 {
			t.Fatalf("truncated reference run is off: %+v, %d dropped", ps, pd)
		}
		if fs != ps || fd != pd || !reflect.DeepEqual(fl, pl) {
			t.Fatalf("truncated runs differ: fan %+v dropped %d, single posts %+v dropped %d", fs, fd, ps, pd)
		}
	})

	for _, shards := range []int{1, 7} {
		for _, workers := range []int{1, 2} {
			w := newFanWorld(140, shards)
			run := func(fans bool) ([][]fanRec, []count) {
				k, s := fanOnShards(w, fans)
				var counts []count
				k.SetBarrier(func() { counts = append(counts, count{k.Executed(), k.Pending()}) })
				if !k.Drain(workers, math.MaxUint64) {
					t.Fatal("did not drain")
				}
				return s.logs, counts
			}
			plain, plainCounts := run(false)
			fan, fanCounts := run(true)
			if !reflect.DeepEqual(fan, plain) {
				t.Fatalf("shards=%d workers=%d: fan records executed a different per-shard sequence than single posts", shards, workers)
			}
			if !reflect.DeepEqual(fanCounts, plainCounts) {
				t.Fatalf("shards=%d workers=%d: Executed()/Pending() at some barrier differ between the modes", shards, workers)
			}
			if !reflect.DeepEqual(byCell(fan), ref) {
				t.Fatalf("shards=%d workers=%d: per-cell sequences differ from the serial engine's", shards, workers)
			}

			// Truncated at the cutoff, and by a backstop that trips at a
			// barrier with fan records still boxed in the mailboxes.
			trunc := func(fans bool, backstop uint64) (count, int, [][]fanRec) {
				k, s := fanOnShards(w, fans)
				if done := k.DrainUntil(workers, cutoff, backstop); done != (backstop == math.MaxUint64) {
					t.Fatalf("DrainUntil with backstop %d reported %v", backstop, done)
				}
				c := count{k.Executed(), k.Pending()}
				boxed := 0
				for i := range k.shards {
					for j := range k.shards[i].routes {
						boxed += k.shards[i].routes[j].pending
					}
				}
				if (boxed > 0) != (shards > 1 && backstop != math.MaxUint64) {
					t.Fatalf("%d events boxed after DrainUntil with backstop %d", boxed, backstop)
				}
				return c, k.DiscardPending(), s.logs
			}
			for _, backstop := range []uint64{math.MaxUint64, 3000} {
				pc, pd, pl := trunc(false, backstop)
				fc, fd, fl := trunc(true, backstop)
				if fc != pc || fd != pd || pd == 0 || !reflect.DeepEqual(fl, pl) {
					t.Fatalf("shards=%d workers=%d: truncated runs differ: fan %+v dropped %d, single posts %+v dropped %d", shards, workers, fc, fd, pc, pd)
				}
			}
		}
	}
}

// TestFanPushBack pins the one case in which a fan record's deliveries
// do not run back to back: a handler queues, at the current time, an
// event of a lower-numbered origin. It must run before the rest of the
// record, which goes back on the heap.
func TestFanPushBack(t *testing.T) {
	w := &fanWorld{nbrs: [][]int32{{}, {}, {}, {}, {}, {0, 1, 2, 3}}, shards: 1}
	e := NewEngine()
	e.SetFanout(w)
	var order []int32
	e.Handle(KindMessage, handlerFunc(func(ev Event, _ Attachment) {
		order = append(order, ev.Cell)
		if ev.Cell == 1 {
			// Cell 1 answers at once: (now, origin 1) sorts before the
			// record's next delivery (now, origin 5).
			e.Post(e.Now(), 1, Event{Kind: KindRelease, Cell: 1}, Attachment{})
		}
	}))
	e.Handle(KindRelease, handlerFunc(func(ev Event, _ Attachment) { order = append(order, -ev.Cell) }))
	e.PostFan(10, 5, Event{Kind: KindMessage}, 0, 0b1111)
	if e.Pending() != 4 {
		t.Fatalf("Pending = %d for one record of four events", e.Pending())
	}
	e.Run(10)
	if want := []int32{0, 1, -1, 2, 3}; !reflect.DeepEqual(order, want) {
		t.Fatalf("executed %v, want %v", order, want)
	}
	if f := e.Footprint(); f.Pops != 3 || e.Executed() != 5 {
		t.Fatalf("%d pops for %d events, want 3 (the record, the answer, the pushed-back rest) for 5", f.Pops, e.Executed())
	}
}

// TestFanNeedsFanout: PostFan without a resolver fails at the post, not
// at some later pop.
func TestFanNeedsFanout(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PostFan without SetFanout did not panic")
		}
	}()
	NewEngine().PostFan(1, 0, Event{Kind: KindMessage}, 0, 3)
}
