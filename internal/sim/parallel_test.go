package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// TestShardsCanonicalOrder pins the execution order of simultaneous
// events: ascending (at, origin, counter), regardless of insertion
// order or which shard the origin lives in.
func TestShardsCanonicalOrder(t *testing.T) {
	k := NewShards(2, 5, 4)
	var got []string
	rec := func(tag string) func() { return func() { got = append(got, tag) } }
	// Shard 0 owns origins 0,1; shard 1 owns origins 2,3. Insert out of
	// order; ties at t=10 must run by origin then by counter.
	k.At(0, 10, 1, rec("t10 org1 c1"))
	k.At(0, 10, 0, rec("t10 org0 c1"))
	k.At(0, 10, 0, rec("t10 org0 c2"))
	k.At(1, 10, 2, rec("t10 org2 c1"))
	k.At(0, 7, 1, rec("t7 org1"))
	k.Run(1, 100)
	// Shards interleave in real time, but each origin's events run on one
	// shard; with workers=1 the global order is observable directly.
	want := []string{"t7 org1", "t10 org0 c1", "t10 org0 c2", "t10 org1 c1", "t10 org2 c1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

// TestShardsCrossDelivery checks that cross-shard events flushed at a
// barrier execute at their due time on the destination shard.
func TestShardsCrossDelivery(t *testing.T) {
	k := NewShards(2, 10, 2)
	var deliveredAt Time = -1
	k.At(0, 3, 0, func() {
		k.Cross(0, 1, 3+10, 0, func() { deliveredAt = k.Now(1) })
	})
	k.Run(1, 100)
	if deliveredAt != 13 {
		t.Fatalf("cross-shard event delivered at %d, want 13", deliveredAt)
	}
	if k.Executed() != 2 {
		t.Fatalf("executed %d events, want 2", k.Executed())
	}
}

// TestShardsLookaheadViolationPanics checks the conservative-sync guard.
func TestShardsLookaheadViolationPanics(t *testing.T) {
	k := NewShards(2, 10, 2)
	k.At(0, 5, 0, func() {
		defer func() {
			if recover() == nil {
				t.Error("Cross inside the lookahead window did not panic")
			}
		}()
		k.Cross(0, 1, 14, 0, func() {}) // 14 < now(5) + T(10)
	})
	k.Run(1, 100)
}

// TestShardsPastSchedulingPanics mirrors Engine.At's contract.
func TestShardsPastSchedulingPanics(t *testing.T) {
	k := NewShards(1, 10, 1)
	k.At(0, 20, 0, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(0, 5, 0, func() {})
	})
	k.Run(1, 100)
}

// TestShardsRunUntil checks Engine.Run-compatible horizon semantics:
// events at exactly `until` run, later events stay queued, clocks land
// on until.
func TestShardsRunUntil(t *testing.T) {
	k := NewShards(2, 4, 2)
	ran := map[Time]bool{}
	for _, at := range []Time{10, 20, 21} {
		at := at
		k.At(int(at)%2, at, int32(at)%2, func() { ran[at] = true })
	}
	k.Run(1, 20)
	if !ran[10] || !ran[20] || ran[21] {
		t.Fatalf("ran = %v, want events at 10 and 20 only", ran)
	}
	for s := 0; s < 2; s++ {
		if k.Now(s) != 20 {
			t.Fatalf("shard %d clock = %d, want 20", s, k.Now(s))
		}
	}
	if !k.Drain(1, 10) {
		t.Fatal("drain did not empty the queue")
	}
	if !ran[21] {
		t.Fatal("event at 21 never ran")
	}
}

// TestShardsDeterminismAcrossWorkers runs a cascading cross-shard
// workload at several worker counts and asserts identical per-origin
// execution logs (per-origin slices are written only by the owning
// shard, so recording them is race-free).
func TestShardsDeterminismAcrossWorkers(t *testing.T) {
	const (
		nShards = 8
		origins = 64
		T       = Time(10)
	)
	run := func(workers int) [][]Time {
		k := NewShards(nShards, T, origins)
		log := make([][]Time, origins)
		var cascade func(org int32, depth int)
		cascade = func(org int32, depth int) {
			s := int(org) % nShards
			log[org] = append(log[org], k.Now(s))
			if depth == 0 {
				return
			}
			// Ping two "neighbor" origins on other shards and re-arm
			// locally, mixing intra- and cross-shard scheduling.
			for d := int32(1); d <= 2; d++ {
				dst := (org + d*7) % origins
				at := k.Now(s) + T + Time(org%3)
				k.Cross(s, int(dst)%nShards, at, org, func() { cascade(dst, depth-1) })
			}
			k.At(s, k.Now(s)+1, org, func() { log[org] = append(log[org], -k.Now(s)) })
		}
		for o := int32(0); o < origins; o++ {
			o := o
			k.At(int(o)%nShards, Time(o%5), o, func() { cascade(o, 4) })
		}
		if !k.Drain(workers, 1_000_000) {
			t.Fatalf("workers=%d: did not quiesce", workers)
		}
		return log
	}
	ref := run(1)
	for _, w := range []int{2, 4, 8} {
		if got := run(w); !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: execution log diverged from workers=1", w)
		}
	}
}

// TestShardsReserve checks the capacity hint takes and doesn't disturb
// queued events.
func TestShardsReserve(t *testing.T) {
	k := NewShards(2, 5, 2)
	k.At(0, 1, 0, func() {})
	k.Reserve(0, 3000)
	if f := k.Footprint(); f.HeapPages != 3 || f.PoolPages != 2 || f.PoolOut != 2 {
		t.Fatalf("Reserve(3000) left %d heap pages, %d of the pool's %d out; want the shard's own page and two of the pool's", f.HeapPages, f.PoolOut, f.PoolPages)
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d after reserve, want 1", k.Pending())
	}
	k.Run(1, 10)
	if k.Executed() != 1 {
		t.Fatalf("executed = %d, want 1", k.Executed())
	}
}

// TestShardsDrainBackstop checks the runaway-loop guard.
func TestShardsDrainBackstop(t *testing.T) {
	k := NewShards(1, 5, 1)
	var rearm func()
	rearm = func() { k.At(0, k.Now(0)+1, 0, rearm) }
	k.At(0, 0, 0, rearm)
	if k.Drain(1, 100) {
		t.Fatal("drain of a self-rearming event reported quiescence")
	}
	if k.Executed() < 100 {
		t.Fatalf("executed %d, want >= 100 before backstop", k.Executed())
	}
}

func TestShardsRunMaxInt(t *testing.T) {
	k := NewShards(1, 5, 1)
	ran := false
	k.At(0, math.MaxInt64-1, 0, func() { ran = true })
	k.Run(1, math.MaxInt64)
	if !ran {
		t.Fatal("event near MaxInt64 never ran (horizon overflow)")
	}
}

func ExampleShards() {
	k := NewShards(2, 10, 2)
	k.At(0, 0, 0, func() {
		k.Cross(0, 1, 10, 0, func() { fmt.Println("delivered at", k.Now(1)) })
	})
	k.Run(1, 100)
	// Output: delivered at 10
}

// TestShardsRoutesLazySparse checks that cross-shard mailboxes are
// materialized per destination actually used — O(neighbor shards) —
// rather than one per (src, dst) pair as the dense outbox was.
func TestShardsRoutesLazySparse(t *testing.T) {
	const n = 256
	k := NewShards(n, 10, n)
	for s := 0; s < n; s++ {
		if got := k.Routes(s); got != 0 {
			t.Fatalf("shard %d materialized %d routes before any traffic", s, got)
		}
	}
	// Shard 0 talks to its two ring neighbors only.
	k.At(0, 0, 0, func() {
		k.Cross(0, 1, 10, 0, func() {})
		k.Cross(0, n-1, 10, 0, func() {})
		k.Cross(0, 1, 11, 0, func() {})
	})
	k.Run(1, 20)
	if got := k.Routes(0); got != 2 {
		t.Fatalf("shard 0 routes = %d, want 2 (one per destination used)", got)
	}
	for s := 1; s < n; s++ {
		if got := k.Routes(s); got != 0 {
			t.Fatalf("idle shard %d materialized %d routes", s, got)
		}
	}
}

// TestShardsParallelFlushMatchesSerial drives enough cross-shard
// traffic through a barrier (> parallelFlushThreshold boxed events)
// that flush takes the destination-parallel path at workers > 1, and
// asserts the per-origin execution logs match the workers=1 serial
// merge exactly. The boxed events are a mix of func events, flat typed
// events and typed events carrying an attachment, so side entries are
// re-homed from route to destination table on both flush paths (run
// under -race: a side table shared between two flush workers would
// show here). The second wave targets destinations never used before
// the run, so the inbound index goes stale mid-run and the rebuild path
// is exercised too.
func TestShardsParallelFlushMatchesSerial(t *testing.T) {
	const (
		nShards = 8
		origins = 1024
		T       = Time(10)
		fanout  = 8
	)
	type hit struct {
		at   Time
		org  int32
		kind Kind
		use  uint64 // attachment payload, 0 for none
	}
	run := func(workers int) [][]hit {
		k := NewShards(nShards, T, origins)
		// Log per executing shard: a shard's events run on exactly one
		// goroutine and in canonical key order, so the logs are
		// race-free and comparable across worker counts.
		log := make([][]hit, nShards)
		// secondWave fans out from dst to a shard offset no pre-run
		// event used, materializing fresh routes mid-run. The origin
		// must be one whose counter slot only shard dst touches (the
		// kernel contract: an origin is scheduled from a single shard),
		// so use dst itself rather than o — o's wave-1 events run on
		// two different shards.
		secondWave := func(dst int, o int32) {
			far := (dst + 3) % nShards
			at := k.Now(dst) + T + Time(o%5)
			switch o % 3 {
			case 0:
				k.Cross(dst, far, at, int32(dst), func() {
					log[far] = append(log[far], hit{-k.Now(far), o, KindFunc, 0})
				})
			case 1:
				k.PostCross(dst, far, at, int32(dst), Event{Kind: KindRelease, Cell: int32(far), Peer: o}, Attachment{})
			case 2:
				k.PostCross(dst, far, at, int32(dst), Event{Kind: KindRelease, Cell: int32(far), Peer: o},
					Attachment{Words: []uint64{uint64(o)}, Seq: uint64(dst)})
			}
		}
		k.Handle(KindRelease, handlerFunc(func(ev Event, att Attachment) {
			far := int(ev.Cell)
			h := hit{-k.Now(far), ev.Peer, ev.Kind, att.Seq}
			if len(att.Words) > 0 {
				h.use += att.Words[0] << 8
			}
			log[far] = append(log[far], h)
		}))
		k.Handle(KindMessage, handlerFunc(func(ev Event, att Attachment) {
			dst := int(ev.Cell)
			h := hit{k.Now(dst), ev.Origin(), ev.Kind, att.Seq}
			if len(att.Words) > 0 {
				h.use += att.Words[0] << 8
			}
			log[dst] = append(log[dst], h)
			secondWave(dst, ev.Origin())
		}))
		// First wave: 8192 pre-run cross events, all boxed before the
		// first flush, so the very first barrier is over threshold.
		for o := int32(0); o < origins; o++ {
			src := int(o) % nShards
			for j := 0; j < fanout; j++ {
				dst := (src + 1 + j%2) % nShards
				at := T + Time((int(o)+j)%13)
				o, dst := o, dst
				switch j % 3 {
				case 0:
					k.Cross(src, dst, at, o, func() {
						log[dst] = append(log[dst], hit{k.Now(dst), o, KindFunc, 0})
						secondWave(dst, o)
					})
				case 1:
					k.PostCross(src, dst, at, o, Event{Kind: KindMessage, Cell: int32(dst)}, Attachment{})
				case 2:
					k.PostCross(src, dst, at, o, Event{Kind: KindMessage, Cell: int32(dst)},
						Attachment{Words: []uint64{uint64(o), uint64(j)}, Seq: uint64(j)})
				}
			}
		}
		if !k.Drain(workers, 1_000_000) {
			t.Fatalf("workers=%d: did not quiesce", workers)
		}
		if k.Pending() != 0 {
			t.Fatalf("workers=%d: %d events left pending", workers, k.Pending())
		}
		for s := 0; s < nShards; s++ {
			q := &k.shards[s].q
			if len(q.fns.free) != len(q.fns.slots) || q.atts.freeSlots() != q.atts.n {
				t.Fatalf("workers=%d: shard %d still holds a side entry after the drain", workers, s)
			}
		}
		return log
	}
	ref := run(1)
	kinds := map[Kind]int{}
	withUse := 0
	for _, l := range ref {
		for _, h := range l {
			kinds[h.kind]++
			if h.use != 0 {
				withUse++
			}
		}
	}
	if kinds[KindFunc] == 0 || kinds[KindMessage] == 0 || kinds[KindRelease] == 0 || withUse == 0 {
		t.Fatalf("the mix is vacuous: kinds %v, %d with attachment", kinds, withUse)
	}
	for _, w := range []int{2, 4} {
		if got := run(w); !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: execution log diverged from serial flush", w)
		}
	}
}

// TestShardsReserveBudget checks that absurd capacity hints fail fast
// with a descriptive error instead of attempting the allocation.
func TestShardsReserveBudget(t *testing.T) {
	k := NewShards(2, 5, 2)
	if err := k.Reserve(0, -1); err == nil {
		t.Fatal("negative heap reserve accepted")
	}
	huge := int(DefaultReserveBudget) // events; bytes = huge * EventSize >> budget
	if err := k.Reserve(0, huge); err == nil {
		t.Fatal("budget-blowing heap reserve accepted")
	}
	if f := k.Footprint(); f.HeapPages != 0 || f.PoolPages != 0 {
		t.Fatalf("rejected reserves left %d heap pages and %d pool pages", f.HeapPages, f.PoolPages)
	}
	// Sane hints still work after rejections.
	if err := k.Reserve(0, 1024); err != nil {
		t.Fatalf("sane heap reserve rejected: %v", err)
	}
}

// TestShardsReserveBudgetCumulative checks the budget covers the sum
// of reservations, not each call in isolation, and that
// SetReserveBudget(<=0) restores the default.
func TestShardsReserveBudgetCumulative(t *testing.T) {
	k := NewShards(2, 5, 2)
	k.SetReserveBudget(64 << 10)
	perCall := int((32 << 10) / EventSize) // half the budget in events
	if err := k.Reserve(0, perCall); err != nil {
		t.Fatalf("first half-budget reserve rejected: %v", err)
	}
	if err := k.Reserve(1, perCall); err != nil {
		t.Fatalf("second half-budget reserve rejected: %v", err)
	}
	if err := k.Reserve(0, 2*perCall); err == nil {
		t.Fatal("reserve past the cumulative budget accepted")
	}
	k.SetReserveBudget(0)
	if err := k.Reserve(0, 2*perCall); err != nil {
		t.Fatalf("reserve after restoring the default budget rejected: %v", err)
	}
}
