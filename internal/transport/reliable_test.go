package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/message"
)

// stack builds live → faulty → reliable and returns all three layers.
func stack(fault FaultConfig, rel ReliableConfig) (*Live, *Faulty, *Reliable) {
	live := NewLive(0)
	f := NewFaulty(live, fault)
	r := NewReliable(f, rel)
	return live, f, r
}

func TestReliableDeliversInOrderUnderLoss(t *testing.T) {
	live, _, r := stack(
		FaultConfig{Seed: 5, Drop: 0.2, Duplicate: 0.1, Reorder: 0.1,
			JitterMin: 10 * time.Microsecond, JitterMax: 300 * time.Microsecond,
			ReorderDelay: 400 * time.Microsecond},
		ReliableConfig{Timeout: 2 * time.Millisecond},
	)
	var mu sync.Mutex
	var order []int
	r.Attach(1, HandlerFunc(func(m message.Message) {
		mu.Lock()
		order = append(order, int(m.Ch))
		mu.Unlock()
	}))
	r.Attach(0, HandlerFunc(func(message.Message) {}))
	live.Start()
	defer live.Stop()
	const n = 300
	for i := 0; i < n; i++ {
		r.Send(message.Message{Kind: message.Request, From: 0, To: 1, Ch: chanset.Channel(i)})
	}
	waitCond(t, 30*time.Second, func() bool { return r.Idle() })
	r.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != n {
		t.Fatalf("delivered %d of %d despite reliability layer", len(order), n)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated at %d: got channel %d", i, v)
		}
	}
	st := r.Stats()
	if st.DropsInjected == 0 || st.Retransmits == 0 {
		t.Fatalf("expected injected drops and retransmits, got %+v", st)
	}
	if st.DupsInjected > 0 && st.DupsSuppressed == 0 {
		t.Fatalf("duplicates injected but none suppressed: %+v", st)
	}
}

func TestReliableStripsTransportFraming(t *testing.T) {
	live, _, r := stack(FaultConfig{}, ReliableConfig{})
	var seq atomic.Uint64
	var kinds atomic.Int64
	r.Attach(1, HandlerFunc(func(m message.Message) {
		seq.Store(m.Seq)
		if m.Kind == message.Ack {
			kinds.Add(1)
		}
	}))
	r.Attach(0, HandlerFunc(func(m message.Message) {
		if m.Kind == message.Ack {
			kinds.Add(1)
		}
	}))
	live.Start()
	defer live.Stop()
	r.Send(message.Message{Kind: message.Request, From: 0, To: 1})
	waitCond(t, 5*time.Second, func() bool { return r.Idle() })
	r.Close()
	if seq.Load() != 0 {
		t.Fatalf("protocol layer saw transport sequence number %d", seq.Load())
	}
	if kinds.Load() != 0 {
		t.Fatal("protocol layer saw an ACK message")
	}
	if st := r.Stats(); st.AcksSent != 1 || st.ByKind[message.Ack] != 1 {
		t.Fatalf("ack accounting wrong: %+v", st)
	}
}

func TestReliableRetryBudgetExhausts(t *testing.T) {
	// 100% loss: the message can never get through; the layer must give
	// up after MaxRetries and report it, not spin forever.
	live, _, r := stack(
		FaultConfig{Seed: 1, Drop: 1},
		ReliableConfig{Timeout: 200 * time.Microsecond, BackoffCap: 400 * time.Microsecond, MaxRetries: 3},
	)
	abandoned := make(chan message.Message, 1)
	r.OnAbandon = func(m message.Message) { abandoned <- m }
	r.Attach(1, HandlerFunc(func(message.Message) {}))
	r.Attach(0, HandlerFunc(func(message.Message) {}))
	live.Start()
	defer live.Stop()
	r.Send(message.Message{Kind: message.Request, From: 0, To: 1, Ch: 7})
	select {
	case m := <-abandoned:
		if m.Ch != 7 {
			t.Fatalf("abandoned wrong message: %v", m)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("retry budget never exhausted")
	}
	st := r.Stats()
	if st.RetryExhausted != 1 {
		t.Fatalf("RetryExhausted = %d, want 1", st.RetryExhausted)
	}
	if st.Retransmits != 3 {
		t.Fatalf("Retransmits = %d, want 3", st.Retransmits)
	}
	waitCond(t, 5*time.Second, func() bool { return r.Idle() })
}

func TestReliableCloseStopsTimers(t *testing.T) {
	live, _, r := stack(FaultConfig{Seed: 2, Drop: 1}, ReliableConfig{Timeout: time.Millisecond})
	r.Attach(1, HandlerFunc(func(message.Message) {}))
	live.Start()
	r.Send(message.Message{Kind: message.Request, From: 0, To: 1})
	r.Close()
	live.Stop()
	// Any timer that fires after Close must be a no-op; give one a
	// chance to fire and make sure nothing panics.
	time.Sleep(5 * time.Millisecond)
	st := r.Stats()
	if st.RetryExhausted != 0 {
		t.Fatalf("message abandoned after Close: %+v", st)
	}
}

func TestReliableConcurrentLinksUnderLoss(t *testing.T) {
	// Many stations hammering each other through a lossy fabric; every
	// link must individually preserve FIFO and complete.
	live, _, r := stack(
		FaultConfig{Seed: 9, Drop: 0.15, Duplicate: 0.05,
			JitterMin: 5 * time.Microsecond, JitterMax: 200 * time.Microsecond},
		ReliableConfig{Timeout: 1 * time.Millisecond},
	)
	const stations = 6
	const perLink = 60
	type lk struct{ from, to int }
	var mu sync.Mutex
	lastSeen := make(map[lk]int)
	violation := atomic.Bool{}
	for s := 0; s < stations; s++ {
		s := s
		r.Attach(hexgrid.CellID(s), HandlerFunc(func(m message.Message) {
			mu.Lock()
			k := lk{int(m.From), s}
			if int(m.Ch) != lastSeen[k] {
				violation.Store(true)
			}
			lastSeen[k] = int(m.Ch) + 1
			mu.Unlock()
		}))
	}
	live.Start()
	defer live.Stop()
	var wg sync.WaitGroup
	for from := 0; from < stations; from++ {
		from := from
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perLink; i++ {
				for to := 0; to < stations; to++ {
					if to == from {
						continue
					}
					r.Send(message.Message{
						Kind: message.Request, From: hexgrid.CellID(from), To: hexgrid.CellID(to),
						Ch: chanset.Channel(i),
					})
				}
			}
		}()
	}
	wg.Wait()
	waitCond(t, 60*time.Second, func() bool { return r.Idle() })
	r.Close()
	if violation.Load() {
		t.Fatal("per-link FIFO violated under loss")
	}
	mu.Lock()
	defer mu.Unlock()
	for k, n := range lastSeen {
		if n != perLink {
			t.Fatalf("link %v delivered %d of %d", k, n, perLink)
		}
	}
}
