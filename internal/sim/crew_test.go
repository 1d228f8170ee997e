package sim

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// crewCells and crewHops size the relay workload of the crew tests:
// eight cells per shard, each starting a chain of messages that hops to
// another cell, most often on another shard, crewHops times.
const crewCells, crewHops = 8, 60

// keyed is one executed event: its due time and canonical key.
type keyed struct {
	at  Time
	key uint64
}

// relay builds a kernel of shards shards running the relay workload,
// logging each executed event's (At, key) in its shard's log, and a
// barrier that runs an Each over the shards (as the per-barrier
// channel-reuse check of a sharded simulation does), counting the calls
// each shard saw in passes.
func relay(shards, workers int) (k *Shards, logs [][]keyed, passes []int) {
	const T = 5
	cells := shards * crewCells
	k = NewShards(shards, T, cells)
	logs, passes = make([][]keyed, shards), make([]int, shards)
	k.Handle(KindMessage, handlerFunc(func(ev Event, _ Attachment) {
		c := int(ev.Cell)
		s := c / crewCells
		logs[s] = append(logs[s], keyed{ev.At, ev.key})
		if ev.Peer >= crewHops {
			return
		}
		next := (c*13 + 5 + int(ev.Peer)) % cells
		k.PostCross(s, next/crewCells, k.Now(s)+T+Time(c%3), int32(c), Event{Kind: KindMessage, Cell: int32(next), Peer: ev.Peer + 1}, Attachment{})
	}))
	k.SetBarrier(func() { k.Each(workers, func(s int) { passes[s]++ }) })
	for c := range cells {
		k.Post(c/crewCells, Time(c%5), int32(c), Event{Kind: KindMessage, Cell: int32(c)}, Attachment{})
	}
	return k, logs, passes
}

// withProcs sets GOMAXPROCS to n for the rest of t.
func withProcs(t *testing.T, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// settle waits, up to a minute, for the goroutine count to fall back to
// want: a crew worker counts itself out before it has quite returned.
func settle(t *testing.T, want int, after string) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for runtime.NumGoroutine() != want {
		if time.Now().After(deadline) {
			t.Fatalf("after %s: %d goroutines, want %d", after, runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

// TestCrewLeavesNoGoroutines: every entry point that starts a crew —
// Run, Drain, DrainUntil, Step and an Each outside a run — stops it
// before it returns, and so does a run whose barrier hook panics; the
// kernel then runs on to the end.
func TestCrewLeavesNoGoroutines(t *testing.T) {
	withProcs(t, 2)
	base := runtime.NumGoroutine()
	k, _, _ := relay(7, 2)
	k.Each(2, func(int) {})
	settle(t, base, "Each")
	k.Run(2, 40)
	settle(t, base, "Run")
	if !k.DrainUntil(2, 80, math.MaxUint64) {
		t.Fatal("DrainUntil stopped early")
	}
	settle(t, base, "DrainUntil")
	k.Step()
	settle(t, base, "Step")
	if k.Drain(2, 100) {
		t.Fatal("a 100-event budget drained the whole relay")
	}
	settle(t, base, "Drain")
	if w := k.WorkerTimes(); len(w) != 2 || w[1].Phases == 0 {
		t.Fatalf("no crew ran: %+v", w)
	}

	k.SetBarrier(func() {
		if k.Windows()%4 == 0 {
			panic("barrier fault")
		}
	})
	func() {
		defer func() {
			if r := recover(); r != "barrier fault" {
				t.Fatalf("recovered %v, want the barrier's panic", r)
			}
		}()
		k.Drain(2, math.MaxUint64)
	}()
	settle(t, base, "a barrier panic")
	k.SetBarrier(nil)
	watchdog(t, func() {
		if !k.Drain(2, math.MaxUint64) || k.Pending() != 0 {
			t.Error("the run after the panic did not drain")
		}
	})
	settle(t, base, "the run after the panic")
}

// TestCrewOversubscribed: more workers asked for than GOMAXPROCS allows
// — four at one, seven on seven shards at two — run every shard's
// events in the order one worker does, under a watchdog, so that a crew
// that waits on a worker that cannot run fails instead of hanging.
func TestCrewOversubscribed(t *testing.T) {
	const shards = 7
	k, ref, refPasses := relay(shards, 1)
	if !k.Drain(1, math.MaxUint64) {
		t.Fatal("one worker did not drain")
	}
	for _, c := range []struct{ procs, workers int }{{1, 4}, {2, 7}} {
		t.Run(fmt.Sprintf("procs=%d/workers=%d", c.procs, c.workers), func(t *testing.T) {
			withProcs(t, c.procs)
			k, logs, passes := relay(shards, c.workers)
			k.Each(c.workers, func(s int) { passes[s]-- })
			watchdog(t, func() {
				if !k.Drain(c.workers, math.MaxUint64) {
					t.Error("did not drain")
				}
			})
			if !reflect.DeepEqual(logs, ref) {
				t.Fatal("the per-shard (At, key) logs differ from one worker's")
			}
			for s := range passes {
				if passes[s]+1 != refPasses[s] {
					t.Fatalf("shard %d: %d barrier passes, want %d", s, passes[s]+1, refPasses[s])
				}
			}
			want := min(c.procs, c.workers)
			if want == 1 {
				want = 0 // no crew: one worker runs inline
			}
			if w := k.WorkerTimes(); len(w) != want {
				t.Fatalf("%d crew workers, want %d", len(w), want)
			}
		})
	}
}

// TestCrewCountsPhases: each crew worker takes part in every phase —
// each window, each barrier merge (one per barrier with a boxed record,
// the pre-run one included) and each Each, inside the run or not — and
// the kernel's figures count exactly those. Nothing is asserted about
// durations.
func TestCrewCountsPhases(t *testing.T) {
	withProcs(t, 2)
	k, _, _ := relay(7, 2)
	merges := 0
	boxed := func() {
		for s := range k.shards {
			for r := range k.shards[s].routes {
				if k.shards[s].routes[r].n > 0 {
					merges++
					return
				}
			}
		}
	}
	boxed()
	k.SetBarrier(func() {
		k.Each(2, func(int) {})
		boxed()
	})
	k.Each(2, func(int) {})
	if !k.Drain(2, math.MaxUint64) {
		t.Fatal("did not drain")
	}
	want := 1 + 2*k.Windows() + uint64(merges)
	w := k.WorkerTimes()
	if len(w) != 2 || merges == 0 {
		t.Fatalf("%d workers and %d merges, want 2 and some", len(w), merges)
	}
	for i, wt := range w {
		if wt.Phases != want {
			t.Fatalf("worker %d ran %d phases, want %d: %d windows, as many barrier passes, %d merges and one Each", i, wt.Phases, want, k.Windows(), merges)
		}
	}
}
