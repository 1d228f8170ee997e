package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hexgrid"
	"repro/internal/message"
)

// ReliableConfig tunes the ack/retransmit layer.
type ReliableConfig struct {
	// Timeout is the initial retransmit timeout (default 3ms — several
	// round trips on the live runtime's microsecond-scale links).
	Timeout time.Duration
	// BackoffCap bounds the exponential backoff (default 50ms).
	BackoffCap time.Duration
	// MaxRetries is the retransmit budget per message; once exhausted
	// the message is abandoned and counted (default 12).
	MaxRetries int
}

func (c *ReliableConfig) defaults() {
	if c.Timeout <= 0 {
		c.Timeout = 3 * time.Millisecond
	}
	if c.BackoffCap < c.Timeout {
		c.BackoffCap = 50 * time.Millisecond
		if c.BackoffCap < c.Timeout {
			c.BackoffCap = c.Timeout
		}
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 12
	}
}

// Validate reports whether the configuration is well-formed.
func (c ReliableConfig) Validate() error {
	if c.Timeout < 0 || c.BackoffCap < 0 || c.MaxRetries < 0 {
		return fmt.Errorf("transport: negative reliability parameter %+v", c)
	}
	return nil
}

// linkKey names one directed link.
type linkKey struct {
	from, to hexgrid.CellID
}

// Reliable restores the reliable-FIFO contract over a lossy transport:
// every protocol message gets a per-link sequence number, the receive
// side acks it, dedups resends, buffers out-of-order arrivals and
// delivers strictly in sequence; the send side retransmits on timeout
// with capped exponential backoff until acked or the retry budget runs
// out. The core FSM's correctness arguments (Theorems 1 and 2) assume
// reliable FIFO links — this layer is what lets them survive a faulty
// signaling plane.
type Reliable struct {
	inner Transport
	cfg   ReliableConfig
	// reg is the in-flight registrar beneath this layer (nil when the
	// stack has none).
	// Every outstanding unacked message holds exactly one work unit from
	// Send until ack, retry exhaustion, or Close — so Live.WaitIdle
	// blocks on armed retransmit timers instead of racing them.
	reg WorkRegistrar

	// OnAbandon, when set, is invoked (outside the layer's lock) for
	// every message whose retransmit budget is exhausted. Runtimes use
	// it to convert a dead link into a counted, graceful failure
	// instead of a silent hang.
	OnAbandon func(m message.Message)

	mu          sync.Mutex
	closed      bool
	sendSeq     map[linkKey]uint64
	outstanding map[linkKey]map[uint64]*unacked
	recv        map[linkKey]*rcvState
	unackedN    int
	bufferedN   int

	// Counters are atomic so Stats snapshots never contend with the
	// send/receive paths for r.mu.
	retransmits    atomic.Uint64
	dupsSuppressed atomic.Uint64
	acksSent       atomic.Uint64
	exhausted      atomic.Uint64
}

// unacked is one sent-but-not-acknowledged message.
type unacked struct {
	m       message.Message
	timer   *time.Timer
	tries   int
	backoff time.Duration
}

// rcvState is the receive side of one directed link.
type rcvState struct {
	next uint64 // next expected sequence number
	buf  map[uint64]message.Message
}

// NewReliable wraps inner with the ack/retransmit layer. Zero config
// fields take defaults.
func NewReliable(inner Transport, cfg ReliableConfig) *Reliable {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg.defaults()
	return &Reliable{
		inner:       inner,
		cfg:         cfg,
		reg:         registrarOf(inner),
		sendSeq:     make(map[linkKey]uint64),
		outstanding: make(map[linkKey]map[uint64]*unacked),
		recv:        make(map[linkKey]*rcvState),
	}
}

// Inner implements Unwrapper, exposing the wrapped transport to
// capability probes.
func (r *Reliable) Inner() Transport { return r.inner }

// addWork/workDone bracket one unacked message's lifetime in the
// underlying transport's idleness accounting; no-ops without a
// registrar.
func (r *Reliable) addWork() {
	if r.reg != nil {
		r.reg.AddExternalWork()
	}
}

func (r *Reliable) workDone() {
	if r.reg != nil {
		r.reg.ExternalWorkDone()
	}
}

// Attach implements Transport: the handler is wrapped with the receive
// side (ack, dedup, resequencing) before attaching to the inner layer.
func (r *Reliable) Attach(id hexgrid.CellID, h Handler) {
	r.inner.Attach(id, HandlerFunc(func(m message.Message) { r.receive(h, m) }))
}

// Send implements Transport: stamp a sequence number, remember the
// message until acked, and arm the retransmit timer.
func (r *Reliable) Send(m message.Message) {
	if m.Kind == message.Ack {
		r.inner.Send(m) // pass-through; acks are never themselves acked
		return
	}
	key := linkKey{m.From, m.To}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.sendSeq[key]++
	m.Seq = r.sendSeq[key]
	u := &unacked{m: m, backoff: r.cfg.Timeout}
	om := r.outstanding[key]
	if om == nil {
		om = make(map[uint64]*unacked)
		r.outstanding[key] = om
	}
	om[m.Seq] = u
	r.unackedN++
	// The work unit is taken before the timer can fire (we hold r.mu)
	// and before the message enters the fabric, so WaitIdle sees the
	// obligation from the very first moment.
	r.addWork()
	seq := m.Seq
	u.timer = time.AfterFunc(u.backoff, func() { r.retransmit(key, seq) })
	r.mu.Unlock()
	r.inner.Send(m)
}

// retransmit fires on ack timeout: resend with doubled (capped) backoff,
// or abandon once the budget is exhausted.
func (r *Reliable) retransmit(key linkKey, seq uint64) {
	r.mu.Lock()
	u := r.outstanding[key][seq]
	if u == nil || r.closed {
		r.mu.Unlock()
		return
	}
	u.tries++
	if u.tries > r.cfg.MaxRetries {
		delete(r.outstanding[key], seq)
		r.unackedN--
		r.exhausted.Add(1)
		m, cb := u.m, r.OnAbandon
		r.mu.Unlock()
		if cb != nil {
			cb(m)
		}
		r.workDone()
		return
	}
	r.retransmits.Add(1)
	u.backoff *= 2
	if u.backoff > r.cfg.BackoffCap {
		u.backoff = r.cfg.BackoffCap
	}
	u.timer = time.AfterFunc(u.backoff, func() { r.retransmit(key, seq) })
	m := u.m
	r.mu.Unlock()
	r.inner.Send(m)
}

// receive runs on the destination station's goroutine (the inner layer
// serializes per-station delivery, so per-link receive state has a
// single writer — the lock only guards against senders and timers).
func (r *Reliable) receive(h Handler, m message.Message) {
	if m.Kind == message.Ack {
		// The acked link is us→them: the ack's sender is the far end.
		key := linkKey{m.To, m.From}
		r.mu.Lock()
		acked := false
		if u := r.outstanding[key][m.Seq]; u != nil {
			u.timer.Stop()
			delete(r.outstanding[key], m.Seq)
			r.unackedN--
			acked = true
		}
		r.mu.Unlock()
		if acked {
			// Exactly one release per outstanding entry: duplicate acks
			// find the entry already gone and release nothing.
			r.workDone()
		}
		return
	}
	if m.Seq == 0 {
		h.Handle(m) // unsequenced (sent below this layer); pass through
		return
	}
	key := linkKey{m.From, m.To}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	// Always ack, including duplicates — the previous ack may be the
	// thing that was lost.
	r.acksSent.Add(1)
	st := r.recv[key]
	if st == nil {
		st = &rcvState{next: 1, buf: make(map[uint64]message.Message)}
		r.recv[key] = st
	}
	var deliver []message.Message
	switch {
	case m.Seq < st.next:
		r.dupsSuppressed.Add(1)
	case m.Seq == st.next:
		st.next++
		deliver = append(deliver, m)
		for {
			b, ok := st.buf[st.next]
			if !ok {
				break
			}
			delete(st.buf, st.next)
			r.bufferedN--
			deliver = append(deliver, b)
			st.next++
		}
	default: // early arrival: hold until the gap fills
		if _, dup := st.buf[m.Seq]; dup {
			r.dupsSuppressed.Add(1)
		} else {
			st.buf[m.Seq] = m
			r.bufferedN++
		}
	}
	r.mu.Unlock()
	r.inner.Send(message.Message{Kind: message.Ack, From: m.To, To: m.From, Seq: m.Seq})
	for _, d := range deliver {
		d.Seq = 0 // the protocol layer never sees transport framing
		h.Handle(d)
	}
}

// Close stops all retransmit timers and rejects further sends. Call
// before stopping the transport beneath. Outstanding entries are
// removed (not just silenced) so their work units release exactly once
// here and a late ack cannot release a second time.
func (r *Reliable) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	released := 0
	for _, om := range r.outstanding {
		for _, u := range om {
			u.timer.Stop()
			released++
		}
	}
	r.outstanding = make(map[linkKey]map[uint64]*unacked)
	r.unackedN = 0
	r.mu.Unlock()
	for i := 0; i < released; i++ {
		r.workDone()
	}
}

// Idle implements Idler: nothing unacked, nothing buffered out of
// order, and the layer beneath is idle.
func (r *Reliable) Idle() bool {
	r.mu.Lock()
	quiet := r.unackedN == 0 && r.bufferedN == 0
	r.mu.Unlock()
	return quiet && innerIdle(r.inner)
}

// Stats implements Transport: inner traffic plus this layer's counters.
func (r *Reliable) Stats() Stats {
	s := r.inner.Stats()
	s.Retransmits += r.retransmits.Load()
	s.DupsSuppressed += r.dupsSuppressed.Load()
	s.AcksSent += r.acksSent.Load()
	s.RetryExhausted += r.exhausted.Load()
	return s
}
