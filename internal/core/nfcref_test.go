package core

import (
	"testing"

	"repro/internal/raceflag"
	"repro/internal/sim"
)

// refNFCWindow is the NFC_i list as it was before the run-length ring:
// every sample kept in two parallel slices, a head index, and a physical
// compaction once the dead prefix passes 64 samples. It stays here as
// the reference nfcWindow is checked against.
type refNFCWindow struct {
	window sim.Time
	times  []sim.Time
	counts []int
	head   int
}

func (w *refNFCWindow) init(t0 sim.Time, count int, window sim.Time) {
	if window <= 0 {
		window = 1
	}
	w.window = window
	w.times = append(w.times[:0], t0)
	w.counts = append(w.counts[:0], count)
	w.head = 0
}

func (w *refNFCWindow) add(t sim.Time, s int) {
	if n := len(w.times); n > w.head && w.times[n-1] == t {
		w.counts[n-1] = s
	} else {
		w.times = append(w.times, t)
		w.counts = append(w.counts, s)
	}
	cutoff := t - w.window
	for w.head+1 < len(w.times) && w.times[w.head+1] <= cutoff {
		w.head++
	}
	if w.head > 64 && w.head > len(w.times)/2 {
		n := copy(w.times, w.times[w.head:])
		w.times = w.times[:n]
		copy(w.counts, w.counts[w.head:])
		w.counts = w.counts[:n]
		w.head = 0
	}
}

func (w *refNFCWindow) get(t sim.Time) int {
	best := w.counts[w.head]
	for i := w.head; i < len(w.times); i++ {
		if w.times[i] > t {
			break
		}
		best = w.counts[i]
	}
	return best
}

func (w *refNFCWindow) predict(now sim.Time, s int, horizon sim.Time) float64 {
	last := w.get(now - w.window)
	return float64(s) + float64(horizon)*float64(s-last)/float64(w.window)
}

// TestNFCWindowMatchesReference drives the run-length ring and the plain
// list with the same random add/get/predict sequences and requires
// bit-identical answers. The step sizes mix same-tick overwrites (gap
// 0), dense runs that fill and grow the ring, and gaps past the window
// that evict it down to one sample; the sequences are long enough to
// cross the reference's compaction boundary (a dead prefix of 64) many
// times, and the counts repeat as often as check_mode's do.
func TestNFCWindowMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := sim.NewRand(seed)
		window := sim.Time(1 + rng.Intn(300))
		var got nfcWindow
		var ref refNFCWindow
		now := sim.Time(rng.Intn(1000))
		count := rng.Intn(12)
		got.init(now, count, window)
		ref.init(now, count, window)
		compactions, overwrites, grew := 0, 0, false
		for step := 0; step < 4000; step++ {
			switch rng.Intn(10) {
			case 0, 1: // same tick: overwrite
				overwrites++
			case 2: // jump past the window
				now += window + sim.Time(rng.Intn(50))
			default:
				now += sim.Time(1 + rng.Intn(int(window)/8+2))
			}
			if rng.Intn(5) == 0 { // one check_mode call in five changes the count
				count = rng.Intn(12)
			}
			headBefore := ref.head
			got.add(now, count)
			ref.add(now, count)
			if ref.head < headBefore {
				compactions++
			}
			if len(got.ring) > nfcRingMin {
				grew = true
			}
			for _, at := range []sim.Time{now, now - window, now - window - 1, now - sim.Time(rng.Intn(int(3*window))), now + 5, -1} {
				if g, r := got.get(at), ref.get(at); g != r {
					t.Fatalf("seed %d step %d: get(%d) = %d, reference %d (now %d, W %d)", seed, step, at, g, r, now, window)
				}
			}
			horizon := sim.Time(rng.Intn(40))
			for _, at := range []sim.Time{now, now - sim.Time(rng.Intn(int(window)+1))} {
				if g, r := got.predict(at, count, horizon), ref.predict(at, count, horizon); g != r {
					t.Fatalf("seed %d step %d: predict(%d, %d, %d) = %v, reference %v", seed, step, at, count, horizon, g, r)
				}
			}
			if int(got.n) > len(ref.times)-ref.head {
				t.Fatalf("seed %d step %d: ring holds %d samples, the plain list %d", seed, step, got.n, len(ref.times)-ref.head)
			}
		}
		if overwrites == 0 || compactions == 0 {
			t.Fatalf("seed %d: sequence had %d overwrites and crossed %d reference compactions; want both", seed, overwrites, compactions)
		}
		if window > 100 && !grew {
			t.Errorf("seed %d: window %d never grew the ring past %d samples", seed, window, nfcRingMin)
		}
	}
}

// TestNFCAddAllocatesNothing: once the ring has seen the busiest window,
// add allocates nothing, whatever mix of repeats, changes and evictions
// follows.
func TestNFCAddAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	var w nfcWindow
	w.init(0, 5, 100)
	now, s := sim.Time(0), 5
	step := func() {
		now += 3
		s = (s + 1) % 7
		w.add(now, s)
		w.add(now, s) // repeat
	}
	for i := 0; i < 200; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("nfcWindow.add allocates %.2f objects per call in steady state, want 0", allocs)
	}
	if len(w.ring) > 64 {
		t.Fatalf("ring grew to %d samples for a window holding 34", len(w.ring))
	}
}
