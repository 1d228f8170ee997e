package transport

import (
	"testing"
	"time"

	"repro/internal/hexgrid"
	"repro/internal/message"
)

// TestWaitIdleCoversRetransmits closes the PR-4 caveat: an unacked
// message whose retransmit timer is armed must keep the transport
// non-idle. Before the WorkRegistrar wiring, Live's counter hit zero
// the moment the (dropped) wire copy was consumed, so WaitIdle raced
// pending retransmits; now the reliability layer holds a work unit for
// the whole ack-or-abandon lifetime.
func TestWaitIdleCoversRetransmits(t *testing.T) {
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
	// Every copy is dropped by the fault layer, so the only live state is
	// the retransmit obligation. Well before the retry budget can run out
	// (first timer fires at 20ms), the transport must not be idle.
	if live.WaitIdle(5 * time.Millisecond) {
		t.Fatal("WaitIdle reported idle while a retransmit timer was armed")
	}
	// After the budget is exhausted (~3 timer periods) the obligation is
	// released and idleness must be reachable.
	if !live.WaitIdle(5 * time.Second) {
		t.Fatal("WaitIdle never became idle after the retry budget ran out")
	}
	if got := rel.Stats().RetryExhausted; got != 1 {
		t.Fatalf("RetryExhausted = %d, want 1", got)
	}
}

// TestWaitIdleReleasedByAck checks the happy path: once the ack lands,
// the work unit is released and the fabric drains to idle quickly.
func TestWaitIdleReleasedByAck(t *testing.T) {
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
	if !live.WaitIdle(5 * time.Second) {
		t.Fatal("transport did not become idle after delivery and ack")
	}
	if !rel.Idle() {
		t.Fatal("reliability layer not idle after ack")
	}
}

// TestWaitIdleReleasedByClose checks the third exit: Close releases
// every outstanding obligation exactly once, and a late ack for a
// closed-out entry releases nothing further.
func TestWaitIdleReleasedByClose(t *testing.T) {
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
	if live.WaitIdle(5 * time.Millisecond) {
		t.Fatal("WaitIdle reported idle with three unacked messages outstanding")
	}
	rel.Close()
	if !live.WaitIdle(5 * time.Second) {
		t.Fatal("WaitIdle did not become idle after Close released the obligations")
	}
	// A stray ack for one of the closed-out sequence numbers must not
	// double-release (the balanced counter would go negative and trip the
	// next idle transition).
	rel.receive(HandlerFunc(func(message.Message) {}), message.Message{Kind: message.Ack, From: 1, To: 0, Seq: 1})
	if !live.Idle() {
		t.Fatal("late ack disturbed idle accounting")
	}
}

// TestRegistrarOfFindsLiveThroughStack pins the capability probe the
// layers use to discover the in-flight counter.
func TestRegistrarOfFindsLiveThroughStack(t *testing.T) {
	live := NewLive(0)
	var tr Transport = NewFaulty(live, FaultConfig{})
	if registrarOf(tr) != WorkRegistrar(live) {
		t.Fatal("registrarOf did not find Live beneath Faulty")
	}
	if registrarOf(bareTransport{}) != nil {
		t.Fatal("registrarOf invented a registrar for a transport that has none")
	}
}

// bareTransport is a Transport and nothing else: no idleness notion, no
// registrar, nothing to unwrap.
type bareTransport struct{}

func (bareTransport) Attach(hexgrid.CellID, Handler) {}
func (bareTransport) Send(message.Message)           {}
func (bareTransport) Stats() Stats                   { return Stats{} }
