package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hexgrid"
	"repro/internal/message"
)

// Live is the concurrent transport: one goroutine per station drains a
// mailbox of closures, so each station's handler runs strictly
// serially while different stations run in parallel — one goroutine per
// base station, exactly the system model of the paper.
//
// Per-link FIFO: with zero Delay, senders enqueue directly into the
// receiver's mailbox, so program order on the sender is delivery order.
// With a positive Delay, messages pass through a single FIFO scheduler
// goroutine (see delaySched) that delivers each message Delay
// after its send while preserving Send-call order — O(1) goroutines
// regardless of how many (from, to) pairs talk, and back-to-back sends
// on one link overlap in flight instead of serializing one Delay apart.
//
// Shutdown: Stop closes a done channel instead of the mailboxes, so a
// Send or Do racing (or arriving after) Stop is dropped cleanly rather
// than panicking on a closed channel. Undelivered messages queued at
// Stop time are discarded — callers that care drain with WaitIdle
// first.
type Live struct {
	delay    time.Duration
	capacity int

	// mu guards configuration (Attach/Start/Stop). The per-message hot
	// paths never take it: boxes and handlers are frozen at Start (Attach
	// afterwards panics), and the stop flag is atomic.
	mu       sync.Mutex
	boxes    map[hexgrid.CellID]chan func()
	handlers map[hexgrid.CellID]Handler
	started  bool
	sched    *delaySched // delay scheduler; non-nil iff delay > 0
	done     chan struct{}
	wg       sync.WaitGroup

	stopped  atomic.Bool
	inflight atomic.Int64 // enqueued-but-unprocessed closures + scheduled messages

	// idleMu guards the WaitIdle waiter list; doneWork closes every
	// registered channel when inflight reaches zero.
	idleMu      sync.Mutex
	idleWaiters []chan struct{}

	total  atomic.Uint64
	byKind [message.NumKinds]atomic.Uint64
	// droppedOnStop counts sends/closures discarded because the
	// transport was already stopped (shutdown-race accounting).
	droppedOnStop atomic.Uint64
}

// NewLive creates a live transport. delay is the modeled one-way message
// latency in wall time (0 = direct delivery); capacity sizes each
// station's mailbox.
func NewLive(delay time.Duration, capacity int) *Live {
	if capacity <= 0 {
		capacity = 1024
	}
	l := &Live{
		delay:    delay,
		capacity: capacity,
		boxes:    make(map[hexgrid.CellID]chan func()),
		handlers: make(map[hexgrid.CellID]Handler),
		done:     make(chan struct{}),
	}
	if delay > 0 {
		l.sched = newDelaySched(l)
	}
	return l
}

// Attach implements Transport. Must be called before Start.
func (l *Live) Attach(id hexgrid.CellID, h Handler) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.started || l.stopped.Load() {
		panic("transport: Attach after Start")
	}
	l.handlers[id] = h
	l.boxes[id] = make(chan func(), l.capacity)
}

// Start launches one goroutine per attached station, plus the delay
// scheduler goroutine when a positive Delay is configured.
func (l *Live) Start() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.started || l.stopped.Load() {
		panic("transport: double Start")
	}
	l.started = true
	if l.sched != nil {
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			l.sched.loop(l.done)
		}()
	}
	for _, box := range l.boxes {
		box := box
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			for {
				select {
				case fn := <-box:
					fn()
					l.doneWork(false)
				case <-l.done:
					// Drain whatever is already queued without
					// executing it, so inflight stays balanced.
					for {
						select {
						case <-box:
							l.doneWork(true)
						default:
							return
						}
					}
				}
			}
		}()
	}
}

// Stop terminates the station and scheduler goroutines. Safe to call
// concurrently with Send and Do: late traffic is dropped, never
// panicked on.
func (l *Live) Stop() {
	l.mu.Lock()
	if !l.started || l.stopped.Load() {
		l.mu.Unlock()
		return
	}
	l.stopped.Store(true)
	close(l.done)
	l.mu.Unlock()
	l.wg.Wait()
}

// Do runs fn on the station goroutine of cell (serialized with its
// message handling). After Stop, fn is silently discarded.
func (l *Live) Do(cell hexgrid.CellID, fn func()) {
	box, ok := l.boxes[cell]
	if !ok {
		panic(fmt.Sprintf("transport: Do on unattached cell %d", cell))
	}
	if l.stopped.Load() {
		l.droppedOnStop.Add(1)
		return
	}
	l.inflight.Add(1)
	select {
	case box <- fn:
	case <-l.done:
		l.doneWork(true)
	}
}

// Send implements Transport. After Stop, messages are dropped cleanly.
func (l *Live) Send(m message.Message) {
	l.total.Add(1)
	if int(m.Kind) < len(l.byKind) {
		l.byKind[m.Kind].Add(1)
	}
	if l.sched == nil {
		l.deliver(m)
		return
	}
	if l.stopped.Load() {
		l.droppedOnStop.Add(1)
		return
	}
	l.inflight.Add(1)
	if !l.sched.schedule(m) {
		l.doneWork(true) // lost the race with Stop's drain
	}
}

func (l *Live) deliver(m message.Message) {
	h, ok := l.handlers[m.To]
	if !ok {
		panic(fmt.Sprintf("transport: send to unattached cell %d: %v", m.To, m))
	}
	box := l.boxes[m.To]
	if l.stopped.Load() {
		l.droppedOnStop.Add(1)
		return
	}
	l.inflight.Add(1)
	select {
	case box <- func() { h.Handle(m) }:
	case <-l.done:
		l.doneWork(true)
	}
}

// doneWork retires one unit of in-flight work; the transition to zero
// wakes every WaitIdle waiter. dropped marks work discarded by a
// shutdown race rather than executed.
func (l *Live) doneWork(dropped bool) {
	if dropped {
		l.droppedOnStop.Add(1)
	}
	if l.inflight.Add(-1) != 0 {
		return
	}
	l.idleMu.Lock()
	ws := l.idleWaiters
	l.idleWaiters = nil
	l.idleMu.Unlock()
	for _, w := range ws {
		close(w)
	}
}

// Idle reports whether no message or closure is queued or in flight.
func (l *Live) Idle() bool { return l.inflight.Load() == 0 }

// AddExternalWork implements WorkRegistrar: it counts one externally
// owned obligation (e.g. a reliability-layer retransmit timer) into the
// in-flight accounting so WaitIdle blocks on it.
func (l *Live) AddExternalWork() { l.inflight.Add(1) }

// ExternalWorkDone retires one unit registered with AddExternalWork.
func (l *Live) ExternalWorkDone() { l.doneWork(false) }

// DroppedOnStop reports how many sends and closures were discarded
// because they raced with or followed Stop.
func (l *Live) DroppedOnStop() uint64 { return l.droppedOnStop.Load() }

// WaitIdle blocks until the transport is idle or the timeout elapses;
// it reports whether idleness was reached. Waiters are woken by the
// idle transition itself (no polling): a handler's own work item stays
// counted until after it returns, so anything it enqueues is visible
// before inflight can reach zero.
//
// Layers above the transport can fold their own pending work into this
// wait via the WorkRegistrar interface: Reliable registers one unit per
// unacked message, so WaitIdle does not report idle while a retransmit
// timer is armed — the message is either acked, retried, or abandoned
// before the fabric counts as drained.
//
// Caveat: "no queued work" is still not "no outstanding requests". Work
// scheduled outside the transport and its registered layers — a caller
// about to Send — is invisible here, so the transport can be
// momentarily idle while the protocol still owes answers. Callers must
// track application-level completion (e.g. outstanding-request counts)
// separately and treat WaitIdle as "the fabric has drained", nothing
// stronger.
func (l *Live) WaitIdle(timeout time.Duration) bool {
	if l.Idle() {
		return true
	}
	deadline := time.Now().Add(timeout)
	for {
		w := make(chan struct{})
		l.idleMu.Lock()
		l.idleWaiters = append(l.idleWaiters, w)
		l.idleMu.Unlock()
		// Re-check after registering: the idle transition may have fired
		// between the check and the append, leaving no one to wake w (a
		// stale waiter is closed harmlessly on a later transition).
		if l.Idle() {
			return true
		}
		d := time.Until(deadline)
		if d <= 0 {
			return l.Idle()
		}
		t := time.NewTimer(d)
		select {
		case <-w:
			t.Stop()
			if l.Idle() {
				return true
			}
			// Transient idle already over; re-arm and keep waiting.
		case <-t.C:
			return l.Idle()
		}
	}
}

// Stats implements Transport.
func (l *Live) Stats() Stats {
	var s Stats
	s.Total = l.total.Load()
	for i := range s.ByKind {
		s.ByKind[i] = l.byKind[i].Load()
	}
	return s
}
