package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hexgrid"
	"repro/internal/message"
)

// Live is the concurrent transport: one goroutine, the loop, drains one
// Queue of typed items (a message with its station's handler, or a Do
// func) for every attached station. A station of the paper is a serial
// process that shares nothing, and nothing asks two stations on one
// machine to run on two threads; parallelism is between transports and
// between a loop and the goroutines that feed it. A send is an append,
// and the loop runs a whole batch per wake-up. The queue is unbounded,
// so stations whose handlers send to each other never deadlock.
//
// The blocking rule: a handler or Do func that waits for other work of
// the same Live (a Do it queued, another station's reply) waits forever.
//
// Per-link FIFO: with zero Delay, senders enqueue directly into the one
// queue, so program order on the sender is delivery order (a Do after a
// Send to one station runs after that message's handler). With a
// positive Delay, messages pass through one FIFO scheduler goroutine
// (see delaySched) that delivers each message Delay after its send, in
// Send-call order, so back-to-back sends on one link overlap in flight
// instead of serializing one Delay apart.
//
// Shutdown: Stop closes a done channel, on which the loop closes its
// queue, so a Send or Do racing (or arriving after) Stop is dropped
// cleanly rather than run. Undelivered work queued at Stop time is
// discarded — callers that care wait for Idle first.
type Live struct {
	delay time.Duration

	// mu guards configuration (Attach/Start/Stop). The per-message hot
	// paths never take it: handlers is frozen at Start (Attach
	// afterwards panics), and the stop flag is atomic.
	mu       sync.Mutex
	handlers map[hexgrid.CellID]Handler
	q        *Queue[work]
	started  bool
	sched    *delaySched // delay scheduler; non-nil iff delay > 0
	done     chan struct{}
	wg       sync.WaitGroup

	stopped  atomic.Bool
	inflight atomic.Int64 // enqueued-but-unprocessed items + scheduled messages

	total  atomic.Uint64
	byKind [message.NumKinds]atomic.Uint64
	// droppedOnStop counts sends/closures discarded because the
	// transport was already stopped (shutdown-race accounting).
	droppedOnStop atomic.Uint64
}

// work is one queue item: fn when non-nil (Do), else m for h.
type work struct {
	h  Handler
	m  message.Message
	fn func()
}

// NewLive creates a live transport. delay is the modeled one-way message
// latency in wall time (0 = direct delivery).
func NewLive(delay time.Duration) *Live {
	l := &Live{
		delay:    delay,
		handlers: make(map[hexgrid.CellID]Handler),
		q:        NewQueue[work](),
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
}

// Start launches the loop, plus the delay scheduler goroutine when a
// positive Delay is configured.
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
	l.wg.Add(1)
	go l.run()
}

// run is the loop: it takes the queue a batch at a time and runs each
// item, retiring one unit of in-flight work per item. Once Stop has
// begun, the rest of a batch and whatever is still queued are dropped,
// not run.
func (l *Live) run() {
	defer l.wg.Done()
	var batch []work
	for {
		select {
		case <-l.q.Wake():
		case <-l.done:
			l.discard(l.q.Close())
			return
		}
		batch = l.q.Take(batch)
		for i := range batch {
			switch w := &batch[i]; {
			case l.stopped.Load():
				l.doneWork(true)
				continue
			case w.fn != nil:
				w.fn()
			default:
				w.h.Handle(w.m)
			}
			l.doneWork(false)
		}
		clear(batch)
	}
}

// Stop terminates the loop and the scheduler goroutine. Safe to call
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

// Do runs fn on the loop, after every message already queued for cell;
// fn must not wait for other work of this Live (see Live). After Stop,
// fn is silently discarded.
func (l *Live) Do(cell hexgrid.CellID, fn func()) {
	if _, ok := l.handlers[cell]; !ok {
		panic(fmt.Sprintf("transport: Do on unattached cell %d", cell))
	}
	l.put(work{fn: fn})
}

// Stopped returns a channel closed by Stop: a caller waiting for a Do
// func to report selects on it too, since after Stop the func never runs.
func (l *Live) Stopped() <-chan struct{} { return l.done }

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
	l.put(work{h: h, m: m})
}

// put counts w in flight and queues it, or drops it once Stop has begun.
func (l *Live) put(w work) {
	if l.stopped.Load() {
		l.droppedOnStop.Add(1)
		return
	}
	l.inflight.Add(1)
	if !l.q.Put(w) {
		l.doneWork(true) // the loop closed the queue on Stop
	}
}

// doneWork retires one unit of in-flight work. dropped marks work
// discarded by a shutdown race rather than executed.
func (l *Live) doneWork(dropped bool) {
	if dropped {
		l.droppedOnStop.Add(1)
	}
	l.inflight.Add(-1)
}

// discard retires n units of work dropped by Stop.
func (l *Live) discard(n int) {
	for ; n > 0; n-- {
		l.doneWork(true)
	}
}

// Idle reports whether no message or closure is queued or in flight. A
// handler's own item stays counted until it returns, so anything it
// queues is counted before Idle can turn true. Work outside the
// transport — a caller about to Send — is invisible here: Idle means
// "the fabric has drained", nothing stronger.
func (l *Live) Idle() bool { return l.inflight.Load() == 0 }

// Stats implements Transport.
func (l *Live) Stats() Stats {
	var s Stats
	s.Total = l.total.Load()
	for i := range s.ByKind {
		s.ByKind[i] = l.byKind[i].Load()
	}
	return s
}
