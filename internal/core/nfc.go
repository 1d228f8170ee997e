package core

import (
	"fmt"

	"repro/internal/sim"
)

// nfcWindow is the paper's NFC_i list: a history of (time, free-primary
// count) samples covering the last W ticks, used by check_mode() to
// linearly extrapolate the free-channel count one round trip into the
// future:
//
//	next = s + 2T * (s - last) / W
//
// where s is the current count and last = get_nfc(now - W).
//
// The history is a step function, so it is stored run-length: add keeps
// a sample only when the count differs from the last one kept (four in
// five check_mode calls repeat it). get reads the same value at every t
// as a list holding every sample would: a dropped sample equals its
// predecessor, and eviction runs on every add, kept or not, so the head
// is always the run in effect at the cutoff (nfcref_test.go holds the
// plain list and the property test against it).
//
// Samples are one word each — time in the high 48 bits, count in the low
// 16 — in a power-of-two ring that doubles when full. Sample times are
// distinct ticks inside a window of W, so the ring never holds more than
// W+2 samples and add stops allocating once the ring has seen the cell's
// busiest window.
type nfcWindow struct {
	window sim.Time
	ring   []uint64
	head   uint32 // index of the oldest retained sample
	n      uint32 // retained samples, >= 1 after init
}

const (
	nfcCountBits = 16
	// maxNFCCount is the largest free-primary count a sample can hold.
	maxNFCCount = 1<<nfcCountBits - 1
	// nfcRingMin is the ring's first size: most cells' windows hold only
	// a few changes of count.
	nfcRingMin = 4
)

func packSample(t sim.Time, s int) uint64 {
	if uint64(s) > maxNFCCount || uint64(t) >= 1<<(64-nfcCountBits) {
		panic(fmt.Sprintf("core: NFC sample (t=%d, count=%d) outside the packed range (count <= %d, 0 <= t < 2^48)", t, s, maxNFCCount))
	}
	return uint64(t)<<nfcCountBits | uint64(s)
}

func sampleTime(e uint64) sim.Time { return sim.Time(e >> nfcCountBits) }
func sampleCount(e uint64) int     { return int(e & maxNFCCount) }

// at returns the i-th retained sample, oldest first.
func (w *nfcWindow) at(i uint32) *uint64 {
	return &w.ring[(w.head+i)&uint32(len(w.ring)-1)]
}

// init seeds the window with the count at time t0 (add_nfc of the paper
// guarantees at least one sample is always retrievable).
func (w *nfcWindow) init(t0 sim.Time, count int, window sim.Time) {
	if window <= 0 {
		// Defensive: predict divides by the window. Factory validation
		// rejects Window <= 0, but guard direct constructions too.
		window = 1
	}
	w.window = window
	if w.ring == nil {
		w.ring = make([]uint64, nfcRingMin)
	}
	w.head, w.n = 0, 1
	w.ring[0] = packSample(t0, count)
}

// add is the paper's add_nfc(t, s): record the sample and drop samples
// older than t - W, always retaining at least the newest sample at or
// before the cutoff so get_nfc(t - W) stays answerable.
func (w *nfcWindow) add(t sim.Time, s int) {
	// Samples arrive in nondecreasing time order (virtual time only
	// moves forward); identical times overwrite.
	last := w.at(w.n - 1)
	switch {
	case sampleTime(*last) == t:
		*last = packSample(t, s)
	case sampleCount(*last) != s:
		if int(w.n) == len(w.ring) {
			w.grow()
		}
		w.n++
		*w.at(w.n - 1) = packSample(t, s)
	}
	cutoff := t - w.window
	// Advance head while the *next* sample is still at or before the
	// cutoff (so the sample at head is the value in effect at cutoff).
	for w.n > 1 && sampleTime(*w.at(1)) <= cutoff {
		w.head = (w.head + 1) & uint32(len(w.ring)-1)
		w.n--
	}
}

// grow doubles the ring, unrolling it to start at index 0.
func (w *nfcWindow) grow() {
	ring := make([]uint64, 2*len(w.ring))
	for i := uint32(0); i < w.n; i++ {
		ring[i] = *w.at(i)
	}
	w.ring, w.head = ring, 0
}

// get is the paper's get_nfc(t): the free-primary count in effect at
// time t. For t older than the retained history it returns the oldest
// known value.
func (w *nfcWindow) get(t sim.Time) int {
	best := *w.at(0)
	for i := uint32(1); i < w.n; i++ {
		e := *w.at(i)
		if sampleTime(e) > t {
			break
		}
		best = e
	}
	return sampleCount(best)
}

// predict extrapolates the count at now+horizon from the trend over the
// window: s + horizon*(s-last)/W.
func (w *nfcWindow) predict(now sim.Time, s int, horizon sim.Time) float64 {
	last := w.get(now - w.window)
	return float64(s) + float64(horizon)*float64(s-last)/float64(w.window)
}
