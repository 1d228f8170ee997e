package transport

import (
	"testing"
	"time"

	"repro/internal/message"
)

// waitIdle polls tr.Idle until it holds or timeout elapses, and reports
// whether it held.
func waitIdle(tr Idler, timeout time.Duration) bool {
	for deadline := time.Now().Add(timeout); !tr.Idle(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestReliableBusyUntilRetriesRunOut: an unacked message whose
// retransmit timer is armed keeps Reliable busy, though every copy is
// lost below it and nothing is queued anywhere; once its retry budget
// runs out it is released, and the stack is idle.
func TestReliableBusyUntilRetriesRunOut(t *testing.T) {
	live := NewLive(0)
	faulty := NewFaulty(live, FaultConfig{Seed: 1, Drop: 1}) // lose everything
	rel := NewReliable(faulty, ReliableConfig{
		Timeout:    20 * time.Millisecond,
		BackoffCap: 20 * time.Millisecond,
		MaxRetries: 2,
	})
	rel.Attach(0, HandlerFunc(func(message.Message) {}))
	rel.Attach(1, HandlerFunc(func(message.Message) {}))
	live.Start()
	defer live.Stop()

	rel.Send(message.Message{Kind: message.Request, From: 0, To: 1})
	// Well before the budget can run out (the first timer fires at 20ms).
	if waitIdle(rel, 5*time.Millisecond) {
		t.Fatal("Idle while a retransmit timer was armed")
	}
	if !live.Idle() || !faulty.Idle() {
		t.Fatal("the layers below Reliable should be idle: every copy was dropped")
	}
	if !waitIdle(rel, 5*time.Second) {
		t.Fatal("never Idle after the retry budget ran out")
	}
	if got := rel.Stats().RetryExhausted; got != 1 {
		t.Fatalf("RetryExhausted = %d, want 1", got)
	}
}

// TestReliableIdleAfterAck: once the ack lands, the message is released
// and the stack drains to idle.
func TestReliableIdleAfterAck(t *testing.T) {
	live := NewLive(0)
	rel := NewReliable(live, ReliableConfig{Timeout: time.Second})
	got := make(chan message.Message, 1)
	rel.Attach(0, HandlerFunc(func(message.Message) {}))
	rel.Attach(1, HandlerFunc(func(m message.Message) { got <- m }))
	live.Start()
	defer live.Stop()

	rel.Send(message.Message{Kind: message.Request, From: 0, To: 1})
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("message never delivered")
	}
	if !waitIdle(rel, 5*time.Second) {
		t.Fatal("not Idle after delivery and ack")
	}
	if got := rel.Stats().Retransmits; got != 0 {
		t.Fatalf("%d retransmits before a prompt ack, want 0", got)
	}
}

// TestReliableIdleAfterClose: Close releases every outstanding message
// exactly once, and a late ack for a closed-out one releases nothing
// further.
func TestReliableIdleAfterClose(t *testing.T) {
	live := NewLive(0)
	faulty := NewFaulty(live, FaultConfig{Seed: 1, Drop: 1})
	rel := NewReliable(faulty, ReliableConfig{Timeout: time.Minute, MaxRetries: 1})
	rel.Attach(0, HandlerFunc(func(message.Message) {}))
	rel.Attach(1, HandlerFunc(func(message.Message) {}))
	live.Start()
	defer live.Stop()

	for i := 0; i < 3; i++ {
		rel.Send(message.Message{Kind: message.Request, From: 0, To: 1})
	}
	if rel.Idle() {
		t.Fatal("Idle with three unacked messages outstanding")
	}
	rel.Close()
	if !rel.Idle() {
		t.Fatal("not Idle after Close released the messages")
	}
	rel.receive(HandlerFunc(func(message.Message) {}), message.Message{Kind: message.Ack, From: 1, To: 0, Seq: 1})
	if !rel.Idle() || rel.unackedN != 0 {
		t.Fatalf("a late ack disturbed the count: Idle %v, %d unacked; want true and 0", rel.Idle(), rel.unackedN)
	}
}

// TestFaultyBusyWhileJitterPending: a message waiting out its jitter
// keeps Faulty busy, though nothing is queued below it yet.
func TestFaultyBusyWhileJitterPending(t *testing.T) {
	live := NewLive(0)
	f := NewFaulty(live, FaultConfig{Seed: 1, JitterMin: 200 * time.Millisecond, JitterMax: 200 * time.Millisecond})
	got := make(chan struct{}, 1)
	f.Attach(1, HandlerFunc(func(message.Message) { got <- struct{}{} }))
	live.Start()
	defer live.Stop()

	f.Send(message.Message{Kind: message.Request, From: 0, To: 1})
	if f.Idle() || !live.Idle() {
		t.Fatalf("during the jitter: Faulty Idle %v, Live Idle %v; want false and true", f.Idle(), live.Idle())
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("message never delivered")
	}
	if !waitIdle(f, 5*time.Second) {
		t.Fatal("not Idle after the delivery")
	}
}
