// Package transport delivers control messages between mobile service
// stations.
//
//   - Live: one goroutine per station with channel mailboxes and real
//     (scaled) delays — the "goroutines are base stations" runtime used
//     to shake out ordering assumptions under true concurrency — and the
//     Faulty and Reliable decorators stacked on it.
//   - The deterministic DES transport — delivery on the discrete-event
//     kernel after a fixed (optionally jittered) one-way latency T,
//     per-link FIFO — is not a type here: it is internal/driver's
//     alloc.Env, whose Send and Multicast frame a message as a kernel
//     event with EventOf and rebuild it with MessageOf (des.go), and
//     count traffic in a Stats.
//
// Both count traffic by message kind so experiments can report the
// paper's message-complexity metric.
package transport

import (
	"repro/internal/hexgrid"
	"repro/internal/message"
)

// Handler consumes messages addressed to one station.
type Handler interface {
	Handle(m message.Message)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(message.Message)

// Handle implements Handler.
func (f HandlerFunc) Handle(m message.Message) { f(m) }

// Transport routes messages between attached stations.
type Transport interface {
	// Attach registers the handler for cell id. Must be called for
	// every cell before the first Send to it.
	Attach(id hexgrid.CellID, h Handler)
	// Send delivers m to m.To asynchronously. Reliable, FIFO per
	// (From, To) pair.
	Send(m message.Message)
	// Stats returns a snapshot of traffic counters.
	Stats() Stats
}

// Stats is the traffic accounting every experiment reports.
type Stats struct {
	// Total messages sent.
	Total uint64
	// Bytes is the wire volume (populated when the transport encodes
	// messages; zero for struct-passing transports).
	Bytes uint64
	// ByKind counts messages per message.Kind.
	ByKind [message.NumKinds]uint64

	// Fault-injection accounting (populated by Faulty; zero elsewhere).

	// DropsInjected counts messages the fault layer discarded.
	DropsInjected uint64
	// DupsInjected counts extra copies the fault layer created.
	DupsInjected uint64
	// ReordersInjected counts messages the fault layer held back past
	// their successors.
	ReordersInjected uint64

	// Reliability-layer accounting (populated by Reliable; zero
	// elsewhere).

	// Retransmits counts timeout-driven resends.
	Retransmits uint64
	// DupsSuppressed counts received messages discarded as duplicates.
	DupsSuppressed uint64
	// AcksSent counts acknowledgements emitted by the receive side.
	AcksSent uint64
	// RetryExhausted counts messages abandoned after the retransmit
	// budget ran out.
	RetryExhausted uint64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Total += o.Total
	s.Bytes += o.Bytes
	for i := range s.ByKind {
		s.ByKind[i] += o.ByKind[i]
	}
	s.DropsInjected += o.DropsInjected
	s.DupsInjected += o.DupsInjected
	s.ReordersInjected += o.ReordersInjected
	s.Retransmits += o.Retransmits
	s.DupsSuppressed += o.DupsSuppressed
	s.AcksSent += o.AcksSent
	s.RetryExhausted += o.RetryExhausted
}

// Count records one sent message. Exported for the DES driver, which
// keeps per-shard Stats rather than wrapping a Transport implementation.
func (s *Stats) Count(m message.Message) { s.CountN(m, 1) }

// CountN records n sent copies of m in one step (a multicast).
func (s *Stats) CountN(m message.Message, n int) {
	s.Total += uint64(n)
	if int(m.Kind) < len(s.ByKind) {
		s.ByKind[m.Kind] += uint64(n)
	}
}

// count records one sent message (shared by implementations).
func (s *Stats) count(m message.Message) { s.CountN(m, 1) }

// Idler is implemented by transports that can report quiescence (Live
// and the decorators stacked on it). Decorators combine their own
// pending work with the layer beneath via innerIdle.
type Idler interface {
	Idle() bool
}

// innerIdle reports whether t is idle, treating transports without an
// idleness notion as always idle.
func innerIdle(t Transport) bool {
	if i, ok := t.(Idler); ok {
		return i.Idle()
	}
	return true
}

// WorkRegistrar is implemented by transports whose idleness accounting
// can adopt externally owned work units. Live implements it: a layer
// that arms its own timers (Reliable's retransmits) registers one unit
// per pending obligation so Live.WaitIdle cannot report idle while the
// obligation is live. Calls must balance exactly.
type WorkRegistrar interface {
	AddExternalWork()
	ExternalWorkDone()
}

// Unwrapper is implemented by decorators that expose the transport they
// wrap, letting capability probes (registrarOf) search the stack.
type Unwrapper interface {
	Inner() Transport
}

// registrarOf returns the nearest WorkRegistrar at or beneath t, or nil
// when the stack bottoms out without one.
func registrarOf(t Transport) WorkRegistrar {
	for t != nil {
		if r, ok := t.(WorkRegistrar); ok {
			return r
		}
		u, ok := t.(Unwrapper)
		if !ok {
			return nil
		}
		t = u.Inner()
	}
	return nil
}
