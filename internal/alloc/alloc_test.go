package alloc

import (
	"testing"

	"repro/internal/hexgrid"
	"repro/internal/message"
)

func TestSerialRunsImmediatelyWhenIdle(t *testing.T) {
	var s Serial
	var started []RequestID
	s.SetStart(func(id RequestID) { started = append(started, id) })
	s.Submit(1)
	if len(started) != 1 || started[0] != 1 {
		t.Fatalf("started = %v", started)
	}
	if !s.Busy() {
		t.Fatal("should be busy until Finish")
	}
}

func TestSerialQueuesWhileBusy(t *testing.T) {
	var s Serial
	var started []RequestID
	s.SetStart(func(id RequestID) { started = append(started, id) })
	s.Submit(1)
	s.Submit(2)
	s.Submit(3)
	if len(started) != 1 {
		t.Fatalf("started %d requests while busy, want 1", len(started))
	}
	if s.QueueLen() != 2 {
		t.Fatalf("QueueLen = %d, want 2", s.QueueLen())
	}
	s.Finish()
	if len(started) != 2 || started[1] != 2 {
		t.Fatalf("after Finish: %v", started)
	}
	s.Finish()
	s.Finish()
	if len(started) != 3 || s.Busy() || s.QueueLen() != 0 {
		t.Fatalf("drain incomplete: %v busy=%v q=%d", started, s.Busy(), s.QueueLen())
	}
}

func TestSerialSynchronousCompletion(t *testing.T) {
	// start finishes synchronously: all queued requests must run, in
	// order, without recursion blowing the logic up.
	var s Serial
	var started []RequestID
	s.SetStart(func(id RequestID) {
		started = append(started, id)
		s.Finish()
	})
	for i := 1; i <= 100; i++ {
		s.Submit(RequestID(i))
	}
	if len(started) != 100 {
		t.Fatalf("ran %d, want 100", len(started))
	}
	for i, id := range started {
		if id != RequestID(i+1) {
			t.Fatalf("order broken at %d: %v", i, started[:i+1])
		}
	}
	if s.Busy() {
		t.Fatal("should be idle")
	}
}

func TestSerialMixedCompletion(t *testing.T) {
	// Alternate synchronous and asynchronous completions.
	var s Serial
	var started []RequestID
	s.SetStart(func(id RequestID) {
		started = append(started, id)
		if id%2 == 0 {
			s.Finish() // even ids complete synchronously
		}
	})
	s.Submit(1)
	s.Submit(2)
	s.Submit(3)
	if len(started) != 1 {
		t.Fatalf("1 should be in flight: %v", started)
	}
	s.Finish() // completes 1 → starts 2 (sync) → starts 3
	if len(started) != 3 {
		t.Fatalf("after finishing 1: %v", started)
	}
	if !s.Busy() {
		t.Fatal("3 should be in flight")
	}
}

type envStub struct {
	Env
	neighbors []hexgrid.CellID
	sent      []message.Message
}

func (e *envStub) Neighbors() []hexgrid.CellID { return e.neighbors }
func (e *envStub) Send(m message.Message)      { e.sent = append(e.sent, m) }

// multiStub offers the Multicaster capability and records its use.
type multiStub struct {
	envStub
	masks [][]uint64
}

func (e *multiStub) Multicast(m message.Message, mask []uint64) {
	e.masks = append(e.masks, mask)
	SendEach(e, m, mask)
}

func TestBroadcast(t *testing.T) {
	targets := []hexgrid.CellID{2, 5, 9}
	env := &envStub{neighbors: targets}
	Broadcast(env, message.Message{Kind: message.Release, From: 1, Ch: 4})
	if len(env.sent) != 3 {
		t.Fatalf("sent %d messages, want 3", len(env.sent))
	}
	for i, m := range env.sent {
		if m.To != targets[i] {
			t.Errorf("message %d to %d, want %d", i, m.To, targets[i])
		}
		if m.From != 1 || m.Ch != 4 || m.Kind != message.Release {
			t.Errorf("payload mangled: %+v", m)
		}
	}
}

// TestMulticast: a mask selects neighbors by index, across words and in
// ascending order, and an Env offering Multicaster is handed the send
// whole — once, with the caller's mask — instead of one Send each.
func TestMulticast(t *testing.T) {
	neighbors := make([]hexgrid.CellID, 70)
	for i := range neighbors {
		neighbors[i] = hexgrid.CellID(100 + i)
	}
	mask := []uint64{1<<0 | 1<<7 | 1<<63, 1<<1 | 1<<5}
	want := []hexgrid.CellID{100, 107, 163, 165, 169}
	check := func(sent []message.Message) {
		t.Helper()
		if len(sent) != len(want) {
			t.Fatalf("sent %d messages, want %d", len(sent), len(want))
		}
		for i, m := range sent {
			if m.To != want[i] || m.From != 3 || m.Ch != 9 {
				t.Errorf("message %d: %+v, want To %d", i, m, want[i])
			}
		}
	}
	plain := &envStub{neighbors: neighbors}
	Multicast(plain, message.Message{Kind: message.Acquisition, From: 3, Ch: 9}, mask)
	check(plain.sent)

	multi := &multiStub{envStub: envStub{neighbors: neighbors}}
	Multicast(multi, message.Message{Kind: message.Acquisition, From: 3, Ch: 9}, mask)
	check(multi.sent)
	Broadcast(multi, message.Message{From: 3})
	if len(multi.masks) != 2 || &multi.masks[0][0] != &mask[0] || multi.masks[1] != nil {
		t.Fatalf("Multicaster saw masks %v, want the caller's and then nil", multi.masks)
	}
	if len(multi.sent) != len(want)+len(neighbors) {
		t.Fatalf("broadcast reached %d neighbors, want %d", len(multi.sent)-len(want), len(neighbors))
	}
}

// TestSerialQueueMemoryIsBounded: the queue is a head-indexed slice.
// A one-at-a-time station must reuse its slot (no allocation per
// request), and a station with a standing backlog — one that never
// empties, as under overload — must stay FIFO and reclaim the popped
// prefix instead of growing with every request ever submitted.
func TestSerialQueueMemoryIsBounded(t *testing.T) {
	var s Serial
	var last RequestID
	s.SetStart(func(id RequestID) {
		if id != last+1 {
			t.Fatalf("started %d after %d: FIFO order broken", id, last)
		}
		last = id
	})
	next := RequestID(0)
	submit := func() { next++; s.Submit(next) }
	submit()
	if allocs := testing.AllocsPerRun(1000, func() { s.Finish(); submit() }); allocs != 0 {
		t.Errorf("idle station: %.1f allocations per request, want 0", allocs)
	}
	const backlog = 5
	for i := 0; i < backlog; i++ {
		submit()
	}
	for i := 0; i < 100_000; i++ {
		s.Finish()
		submit()
	}
	if s.QueueLen() != backlog {
		t.Fatalf("QueueLen = %d, want %d", s.QueueLen(), backlog)
	}
	if c := cap(s.queue); c > 8*backlog {
		t.Fatalf("queue capacity grew to %d under a standing backlog of %d", c, backlog)
	}
	for s.Busy() {
		s.Finish()
	}
	if last != next {
		t.Fatalf("drained to request %d of %d", last, next)
	}
}
