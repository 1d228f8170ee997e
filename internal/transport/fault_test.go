package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chanset"
	"repro/internal/message"
)

func TestFaultConfigValidate(t *testing.T) {
	good := []FaultConfig{
		{},
		{Drop: 0.5, Duplicate: 1, Reorder: 0.01},
		{JitterMin: time.Millisecond, JitterMax: 2 * time.Millisecond},
	}
	for i, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("good config %d rejected: %v", i, err)
		}
	}
	bad := []FaultConfig{
		{Drop: -0.1},
		{Duplicate: 1.5},
		{Reorder: 2},
		{JitterMin: -time.Millisecond},
		{JitterMin: 2 * time.Millisecond, JitterMax: time.Millisecond},
		{ReorderDelay: -time.Second},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestFaultyDropsAndCounts(t *testing.T) {
	live := NewLive(0)
	f := NewFaulty(live, FaultConfig{Seed: 7, Drop: 1}) // drop everything
	var got atomic.Int64
	f.Attach(1, HandlerFunc(func(message.Message) { got.Add(1) }))
	live.Start()
	defer live.Stop()
	for i := 0; i < 50; i++ {
		f.Send(message.Message{Kind: message.Request, From: 0, To: 1})
	}
	if !waitIdle(f, 2*time.Second) {
		t.Fatal("not idle")
	}
	if got.Load() != 0 {
		t.Fatalf("delivered %d messages through a 100%% lossy link", got.Load())
	}
	st := f.Stats()
	if st.DropsInjected != 50 {
		t.Fatalf("DropsInjected = %d, want 50", st.DropsInjected)
	}
	if st.Total != 0 {
		t.Fatalf("dropped messages must not count as sent: Total = %d", st.Total)
	}
}

func TestFaultyDuplicates(t *testing.T) {
	live := NewLive(0)
	f := NewFaulty(live, FaultConfig{Seed: 3, Duplicate: 1}) // duplicate everything
	var got atomic.Int64
	f.Attach(1, HandlerFunc(func(message.Message) { got.Add(1) }))
	live.Start()
	defer live.Stop()
	for i := 0; i < 30; i++ {
		f.Send(message.Message{Kind: message.Release, From: 0, To: 1})
	}
	waitCond(t, 5*time.Second, func() bool { return f.Idle() })
	if got.Load() != 60 {
		t.Fatalf("delivered %d, want 60 (every message doubled)", got.Load())
	}
	if st := f.Stats(); st.DupsInjected != 30 {
		t.Fatalf("DupsInjected = %d, want 30", st.DupsInjected)
	}
}

func TestFaultyJitterReorders(t *testing.T) {
	// With strong jitter, sender order must NOT survive (that is the
	// fault being injected); the test only asserts delivery totals and
	// that the pending counter drains.
	live := NewLive(0)
	f := NewFaulty(live, FaultConfig{
		Seed: 11, JitterMin: 50 * time.Microsecond, JitterMax: 2 * time.Millisecond,
	})
	var mu sync.Mutex
	var order []int
	f.Attach(1, HandlerFunc(func(m message.Message) {
		mu.Lock()
		order = append(order, int(m.Ch))
		mu.Unlock()
	}))
	live.Start()
	defer live.Stop()
	const n = 200
	for i := 0; i < n; i++ {
		f.Send(message.Message{Kind: message.Request, From: 0, To: 1, Ch: chanset.Channel(i)})
	}
	waitCond(t, 10*time.Second, func() bool { return f.Idle() })
	mu.Lock()
	defer mu.Unlock()
	if len(order) != n {
		t.Fatalf("delivered %d of %d", len(order), n)
	}
	inOrder := true
	for i, v := range order {
		if v != i {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Log("warning: jitter produced no reordering this run (possible but unlikely)")
	}
}

func TestFaultySeededDeterminism(t *testing.T) {
	// The drop pattern for a fixed send order is a pure function of the
	// seed.
	pattern := func(seed uint64) []bool {
		live := NewLive(0)
		f := NewFaulty(live, FaultConfig{Seed: seed, Drop: 0.3})
		var mu sync.Mutex
		seen := make(map[int]bool)
		f.Attach(1, HandlerFunc(func(m message.Message) {
			mu.Lock()
			seen[int(m.Ch)] = true
			mu.Unlock()
		}))
		live.Start()
		defer live.Stop()
		for i := 0; i < 100; i++ {
			f.Send(message.Message{Kind: message.Request, From: 0, To: 1, Ch: chanset.Channel(i)})
		}
		if !waitIdle(f, 2*time.Second) {
			t.Fatal("not idle")
		}
		out := make([]bool, 100)
		mu.Lock()
		for i := range out {
			out[i] = seen[i]
		}
		mu.Unlock()
		return out
	}
	a, b := pattern(42), pattern(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at message %d", i)
		}
	}
}

// waitCond polls until cond holds or the timeout expires.
func waitCond(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatal("condition not reached before timeout")
}
