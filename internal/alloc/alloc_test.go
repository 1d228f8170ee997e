package alloc

import (
	"testing"

	"repro/internal/hexgrid"
	"repro/internal/message"
)

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
