package transport

import (
	"reflect"
	"testing"

	"repro/internal/chanset"
	"repro/internal/lamport"
	"repro/internal/message"
	"repro/internal/sim"
)

// The DES transport itself is the driver's alloc.Env (Send and Multicast
// over the event kernel): send_test.go pins its delivery contract. Here:
// the framing it uses, and Stats.

func TestStatsAdd(t *testing.T) {
	var a, b Stats
	a.Total = 3
	a.ByKind[message.Request] = 3
	b.Total = 2
	b.ByKind[message.Release] = 2
	a.Add(b)
	if a.Total != 5 || a.ByKind[message.Request] != 3 || a.ByKind[message.Release] != 2 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

// messageLog is a KindMessage handler that keeps what it is delivered.
type messageLog []message.Message

func (l *messageLog) HandleEvent(ev sim.Event, att sim.Attachment) {
	m := MessageOf(ev, att)
	m.Use = m.Use.Clone() // a view of the kernel's buffer, valid for this call only
	*l = append(*l, m)
}

// TestEventOfRoundTrips: every Message field survives the flat event
// record — the common ones inline, Use and Seq through the attachment,
// From as the event's origin — and a message with neither Use nor Seq
// needs no attachment at all.
func TestEventOfRoundTrips(t *testing.T) {
	e := sim.NewEngine()
	var got messageLog
	e.Handle(sim.KindMessage, &got)
	msgs := []message.Message{
		// Ascending senders: same-tick deliveries run in origin order.
		{Kind: message.ChangeMode, From: 0, To: 9, Mode: message.ModeBorrowing},
		{Kind: message.Request, From: 4, To: 9, Req: message.ReqTransfer, Ch: 17, TS: lamport.Stamp{Time: 1 << 40, Node: 4}},
		{Kind: message.Response, From: 5, To: 9, Res: message.ResSearch, Ch: chanset.NoChannel,
			TS: lamport.Stamp{Time: 77, Node: 9}, Use: chanset.SetOf(0, 3, 69, 130)},
		{Kind: message.Acquisition, From: 6, To: 9, Acq: message.AcqSearch, Ch: 2, Seq: 12345},
		{Kind: message.Response, From: 7, To: 9, Res: message.ResStatus, Use: chanset.NewSet(70)},
	}
	for _, m := range msgs {
		ev, att := EventOf(m)
		if wantAtt := m.Seq != 0 || len(m.Use.Words()) > 0; wantAtt == (att.Seq == 0 && len(att.Words) == 0) {
			t.Errorf("%v: attachment presence = %v, want %v", m, !wantAtt, wantAtt)
		}
		if ev.Kind != sim.KindMessage {
			t.Errorf("%v: event kind %d", m, ev.Kind)
		}
		e.Post(3, int32(m.From), ev, att)
	}
	e.Run(10)
	if len(got) != len(msgs) {
		t.Fatalf("delivered %d of %d", len(got), len(msgs))
	}
	for i, got := range got {
		want := msgs[i]
		if !got.Use.Equal(want.Use) {
			t.Errorf("message %d: Use %v, want %v", i, got.Use, want.Use)
		}
		got.Use, want.Use = chanset.Set{}, chanset.Set{}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("message %d: got %+v, want %+v", i, got, want)
		}
	}
}
