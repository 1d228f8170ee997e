// Package transport delivers control messages between mobile service
// stations.
//
//   - Live: every attached station on one event loop (one goroutine
//     draining one batched queue) with real (scaled) delays — the
//     wall-clock runtime's stations, run under true concurrency with
//     the I/O goroutines and other loops that feed them — and the
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
	"strings"

	"repro/internal/hexgrid"
	"repro/internal/message"
	"repro/internal/metrics"
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

// Dump lists the counters as exact integers, each name under prefix:
// the total as prefix itself, then the bytes, the count of each message
// kind, the injected faults and the reliability layer's tallies.
func (s Stats) Dump(prefix string) metrics.Dump {
	d := make(metrics.Dump, 0, 9+len(s.ByKind))
	d.Put(prefix, s.Total)
	d.Put(prefix+".bytes", s.Bytes)
	for k, n := range s.ByKind {
		d.Put(prefix+"."+strings.ToLower(message.Kind(k).String()), n)
	}
	d.Put(prefix+".drops_injected", s.DropsInjected)
	d.Put(prefix+".dups_injected", s.DupsInjected)
	d.Put(prefix+".reorders_injected", s.ReordersInjected)
	d.Put(prefix+".retransmits", s.Retransmits)
	d.Put(prefix+".dups_suppressed", s.DupsSuppressed)
	d.Put(prefix+".acks_sent", s.AcksSent)
	d.Put(prefix+".retry_exhausted", s.RetryExhausted)
	return d
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
