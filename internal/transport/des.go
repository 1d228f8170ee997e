package transport

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/lamport"
	"repro/internal/message"
	"repro/internal/sim"
)

// DES is the deterministic transport: messages are delivered on the
// discrete-event engine after the configured latency. With zero jitter,
// equal latency plus the engine's stable tie-break gives per-link FIFO
// for free; with jitter, FIFO is enforced explicitly by never scheduling
// a delivery before the previous one on the same link.
type DES struct {
	engine   *sim.Engine
	latency  sim.Time
	jitter   sim.Time // uniform extra delay in [0, jitter]
	rand     *sim.Rand
	handlers []Handler // indexed by cell; nil = unattached
	lastAt   map[linkKey]sim.Time
	stats    Stats
	// wire, when set, routes every message through the binary codec
	// (encode on send, decode on delivery) — catching serialization
	// bugs against live protocol traffic and accounting wire bytes.
	wire    bool
	wireBuf []byte
}

// EnableWire turns on codec round-tripping and byte accounting.
func (d *DES) EnableWire() { d.wire = true }

type linkKey struct {
	from, to hexgrid.CellID
}

// NewDES builds a DES transport with one-way latency T (ticks) and
// uniform jitter in [0, jitter]. A zero-latency transport is allowed for
// unit tests. rand may be nil when jitter is zero.
func NewDES(engine *sim.Engine, latency, jitter sim.Time, rand *sim.Rand) *DES {
	if latency < 0 || jitter < 0 {
		panic(fmt.Sprintf("transport: negative latency %d / jitter %d", latency, jitter))
	}
	if jitter > 0 && rand == nil {
		panic("transport: jitter requires a random stream")
	}
	d := &DES{
		engine:  engine,
		latency: latency,
		jitter:  jitter,
		rand:    rand,
		lastAt:  make(map[linkKey]sim.Time),
	}
	engine.Handle(sim.KindMessage, d)
	return d
}

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

// Latency returns the base one-way latency T.
func (d *DES) Latency() sim.Time { return d.latency }

// Attach implements Transport.
func (d *DES) Attach(id hexgrid.CellID, h Handler) {
	if n := int(id) + 1; n > len(d.handlers) {
		d.handlers = slices.Grow(d.handlers, n-len(d.handlers))[:n]
	}
	d.handlers[id] = h
}

// HandleEvent implements sim.Handler: deliver a KindMessage event.
func (d *DES) HandleEvent(ev sim.Event, att sim.Attachment) {
	d.handlers[ev.Cell].Handle(MessageOf(ev, att))
}

// Send implements Transport.
func (d *DES) Send(m message.Message) {
	if m.To < 0 || int(m.To) >= len(d.handlers) || d.handlers[m.To] == nil {
		panic(fmt.Sprintf("transport: send to unattached cell %d: %v", m.To, m))
	}
	d.stats.count(m)
	if d.wire {
		d.wireBuf = message.Encode(d.wireBuf[:0], m)
		d.stats.Bytes += uint64(len(d.wireBuf))
		decoded, n, err := message.Decode(d.wireBuf)
		if err != nil || n != len(d.wireBuf) {
			panic(fmt.Sprintf("transport: codec round trip failed for %v: %v", m, err))
		}
		m = decoded
	}
	at := d.engine.Now() + d.latency
	if d.jitter > 0 {
		at += sim.Time(d.rand.Intn(int(d.jitter) + 1))
		key := linkKey{m.From, m.To}
		if last := d.lastAt[key]; at < last {
			at = last // preserve FIFO on the link
		}
		d.lastAt[key] = at
	}
	// Deliveries carry the *sender* as the event origin — the same key
	// assignment the sharded driver uses (pcellEnv.Send), so serial and
	// sharded runs order simultaneous deliveries identically.
	ev, att := EventOf(m)
	d.engine.Post(at, int32(m.From), ev, att)
}

// Multicast sends m from m.From to the cells of its n-cell neighbour
// list — the list the engine's sim.Fanout resolves — whose index mask
// selects (alloc.Multicaster's mask; nil selects all n), exactly as one
// Send each in ascending index order would, and returns how many that
// was. It queues one fan record per 64 neighbours instead of one event
// per destination. A message that needs per-destination treatment — a
// jittered due time, a codec round trip, an attachment to park — is
// refused (ok false, nothing sent): the caller sends it one by one.
func (d *DES) Multicast(m message.Message, n int, mask []uint64) (sent int, ok bool) {
	ev, att := EventOf(m)
	if d.jitter > 0 || d.wire || !att.Empty() || n > sim.MaxFanNeighbors {
		return 0, false
	}
	at := d.engine.Now() + d.latency
	for w := 0; w*64 < n; w++ {
		word := sim.FanWord(mask, n, w)
		d.engine.PostFan(at, int32(m.From), ev, w, word)
		sent += bits.OnesCount64(word)
	}
	d.stats.CountN(m, sent)
	return sent, true
}

// Stats implements Transport.
func (d *DES) Stats() Stats { return d.stats }
