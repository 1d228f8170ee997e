package core

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestNFCInitAndGet(t *testing.T) {
	var w nfcWindow
	w.init(0, 10, 100)
	if got := w.get(0); got != 10 {
		t.Fatalf("get(0) = %d", got)
	}
	if got := w.get(-50); got != 10 {
		t.Fatalf("get before history = %d, want oldest value", got)
	}
}

func TestNFCStepFunction(t *testing.T) {
	var w nfcWindow
	w.init(0, 10, 1000)
	w.add(100, 8)
	w.add(200, 5)
	w.add(300, 7)
	cases := map[sim.Time]int{0: 10, 99: 10, 100: 8, 150: 8, 200: 5, 250: 5, 300: 7, 1000: 7}
	for at, want := range cases {
		if got := w.get(at); got != want {
			t.Errorf("get(%d) = %d, want %d", at, got, want)
		}
	}
}

func TestNFCSameTimeOverwrites(t *testing.T) {
	var w nfcWindow
	w.init(0, 10, 100)
	w.add(50, 7)
	w.add(50, 3)
	if got := w.get(50); got != 3 {
		t.Fatalf("same-time add should overwrite: %d", got)
	}
}

func TestNFCWindowEviction(t *testing.T) {
	var w nfcWindow
	w.init(0, 10, 100)
	for i := 1; i <= 50; i++ {
		w.add(sim.Time(i*10), 10-i%5)
	}
	// get at the cutoff (now - W = 400) must still answer with the
	// value in effect then: sample at t=400 was 10 - 40%5 = 10.
	if got := w.get(400); got != 10 {
		t.Fatalf("get(400) = %d, want 10", got)
	}
}

func TestNFCCompaction(t *testing.T) {
	var w nfcWindow
	w.init(0, 10, 10)
	// Many samples far apart force head advancement and ring wrap-around;
	// the window must stay correct throughout.
	for i := 1; i <= 500; i++ {
		at := sim.Time(i * 100)
		w.add(at, i%7)
		if got := w.get(at); got != i%7 {
			t.Fatalf("after add %d: get = %d, want %d", i, got, i%7)
		}
		if got := w.get(at - 10); i >= 2 && got != (i-1)%7 && got != i%7 {
			// At cutoff the previous sample governs (samples are 100
			// apart, window is 10). Step 1 still sees the init value.
			t.Fatalf("cutoff value wrong at step %d: %d", i, got)
		}
	}
	if len(w.ring) > nfcRingMin {
		t.Fatalf("eviction failed: the ring grew to %d samples", len(w.ring))
	}
}

func TestNFCPredictTrend(t *testing.T) {
	var w nfcWindow
	w.init(0, 10, 100)
	// Falling: 10 at t=0 → 4 at t=100; trend -6 per window.
	w.add(100, 4)
	// predict at horizon 50: 4 + 50*(4-10)/100 = 1.
	if got := w.predict(100, 4, 50); got != 1 {
		t.Fatalf("falling predict = %v, want 1", got)
	}
	// Rising back: at t=200, s=9; last = get(100) = 4.
	w.add(200, 9)
	if got := w.predict(200, 9, 50); got != 9+50.0*(9-4)/100 {
		t.Fatalf("rising predict = %v", got)
	}
	// Flat: horizon doesn't matter.
	w.add(300, 9)
	w.add(400, 9)
	if got := w.predict(400, 9, 1000); got != 9 {
		t.Fatalf("flat predict = %v, want 9", got)
	}
}

func TestNFCPredictMonotoneInTrendProperty(t *testing.T) {
	// For a fixed current count, a steeper decline must never predict a
	// larger future value.
	f := func(last1, last2 uint8) bool {
		a, b := int(last1%32), int(last2%32)
		if a < b {
			a, b = b, a
		}
		var w1, w2 nfcWindow
		w1.init(0, a, 100)
		w2.init(0, b, 100)
		w1.add(100, 5)
		w2.add(100, 5)
		// w1 fell from a >= b, so its prediction must be <= w2's.
		return w1.predict(100, 5, 20) <= w2.predict(100, 5, 20)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
