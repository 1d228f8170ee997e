package transport

import (
	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/lamport"
	"repro/internal/message"
	"repro/internal/sim"
)

// The DES framing of a message: what internal/driver's alloc.Env posts on
// the event kernel for a Send, and rebuilds at delivery.

// EventOf flattens m into the kernel's event record for a KindMessage
// delivery. The sender is not stored: deliveries are scheduled with the
// sender as the event origin. The two fields that do not fit the flat
// record — the Use set of ResSearch/ResStatus responses and the
// reliability layer's sequence number, which no DES path stamps — ride
// in the attachment, which is zero (and free) for everything else. The
// attachment's words alias m.Use; the kernel's Post copies them into a
// side-table buffer, which is the one copy alloc.Env.Send promises.
func EventOf(m message.Message) (sim.Event, sim.Attachment) {
	return sim.Event{
			Kind: sim.KindMessage,
			Tag:  [5]uint8{uint8(m.Kind), uint8(m.Req), uint8(m.Res), uint8(m.Acq), m.Mode},
			Cell: int32(m.To),
			Ch:   int32(m.Ch),
			T:    m.TS.Time,
			Peer: m.TS.Node,
		},
		sim.Attachment{Words: m.Use.Words(), Seq: m.Seq}
}

// MessageOf rebuilds the message EventOf flattened. Its Use is a view of
// the side-table buffer, valid until the handler returns.
func MessageOf(ev sim.Event, att sim.Attachment) message.Message {
	return message.Message{
		Kind: message.Kind(ev.Tag[0]),
		From: hexgrid.CellID(ev.Origin()),
		To:   hexgrid.CellID(ev.Cell),
		Req:  message.ReqType(ev.Tag[1]),
		Res:  message.ResType(ev.Tag[2]),
		Acq:  message.AcqType(ev.Tag[3]),
		Mode: ev.Tag[4],
		Ch:   chanset.Channel(ev.Ch),
		TS:   lamport.Stamp{Time: ev.T, Node: ev.Peer},
		Seq:  att.Seq,
		Use:  chanset.FromWords(att.Words),
	}
}
