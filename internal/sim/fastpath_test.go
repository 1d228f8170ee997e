package sim

import (
	"strings"
	"testing"
)

func TestReserveGrowsCapacityAndKeepsOrder(t *testing.T) {
	e := NewEngine()
	e.Reserve(1024)
	var got []Time
	for _, at := range []Time{30, 10, 20} {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	e.Reserve(8) // shrinking request is a no-op
	e.Run(100)
	want := []Time{10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order after Reserve: got %v want %v", got, want)
		}
	}
}

func TestPastPanicMessageHasOrigin(t *testing.T) {
	e := NewEngine()
	e.At(50, func() {})
	e.Run(100)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		if !strings.Contains(msg, "fastpath_test.go") {
			t.Errorf("panic message should name the caller site, got %q", msg)
		}
	}()
	e.At(10, func() {})
}

// TestHeapStressOrdering drives the 4-ary heap through a large
// interleaved push/pop pattern and checks global time order with FIFO
// tie-breaking.
func TestHeapStressOrdering(t *testing.T) {
	e := NewEngine()
	rng := NewRand(42)
	const n = 5000
	var fired []Time
	var schedule func(depth int)
	schedule = func(depth int) {
		at := e.Now() + Time(1+rng.Intn(50))
		e.At(at, func() {
			fired = append(fired, e.Now())
			if depth < 3 {
				schedule(depth + 1)
			}
		})
	}
	for i := 0; i < n; i++ {
		schedule(0)
	}
	e.Run(1_000_000)
	if len(fired) < n {
		t.Fatalf("only %d events fired", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("event %d fired at %d after time %d", i, fired[i], fired[i-1])
		}
	}
}

func TestHeapFIFOWithinSameTick(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(7, func() { got = append(got, i) })
	}
	e.Run(10)
	for i := range got {
		if got[i] != i {
			t.Fatalf("FIFO violated at %d: %v...", i, got[:i+1])
		}
	}
}

func TestAtIsAllocationFree(t *testing.T) {
	e := NewEngine()
	e.Reserve(2048)
	allocs := testing.AllocsPerRun(1000, func() {
		e.At(e.Now()+1, func() {})
		e.Step()
	})
	// One alloc per run is the closure itself; the queue must add none.
	if allocs > 1 {
		t.Errorf("At+Step allocates %.1f objects per event, want <= 1", allocs)
	}
}
