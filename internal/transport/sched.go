package transport

import (
	"sync"
	"time"

	"repro/internal/message"
)

// delaySched is the single-goroutine delay scheduler behind Live's
// latency modeling: one FIFO queue of (due, message) entries drained by
// one goroutine — replacing the old design of one sleeping pipeline
// goroutine per ordered (from, to) cell pair, which on a 7×7 reuse-2
// grid meant O(cells²) goroutines doing nothing but time.Sleep.
//
// FIFO argument: every message carries the same fixed delay, so due
// times are non-decreasing in schedule order, and schedule order is the
// lock-acquisition order of s.mu (due is stamped under the lock from
// the monotonic clock). Hence the queue's head is always the earliest
// entry and delivery order == schedule order, which preserves per-link
// (indeed global) Send-call FIFO with no priority queue. Unlike the
// per-link pipelines, the queue does not serialize a link's messages
// one Delay apart: each message is due Delay after its send, so
// back-to-back sends overlap in flight exactly as they would on a real
// network.
type delaySched struct {
	l *Live

	mu      sync.Mutex
	queue   []delayed // due in non-decreasing order; head is queue[0]
	stopped bool

	// wake nudges the scheduler goroutine when an entry arrives in an
	// empty queue, the only time its wake-up deadline changes (capacity
	// 1; a pending nudge is never worth stacking).
	wake chan struct{}
}

// delayed is one message waiting out the modeled link latency.
type delayed struct {
	due time.Time
	m   message.Message
}

func newDelaySched(l *Live) *delaySched {
	return &delaySched{l: l, wake: make(chan struct{}, 1)}
}

// schedule stamps m's due time and enqueues it; it reports false when
// the scheduler has already drained (transport stopped), in which case
// the caller owns the drop accounting.
func (s *delaySched) schedule(m message.Message) bool {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return false
	}
	wasEmpty := len(s.queue) == 0
	s.queue = append(s.queue, delayed{due: time.Now().Add(s.l.delay), m: m})
	s.mu.Unlock()
	if wasEmpty {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
	return true
}

// loop is the scheduler goroutine: deliver everything due, sleep until
// the next deadline (or a wake nudge), repeat. Exactly one per Live.
func (s *delaySched) loop(done <-chan struct{}) {
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		next, pending := s.runDue()
		var waitCh <-chan time.Time
		if pending {
			timer.Reset(next)
			waitCh = timer.C
		}
		select {
		case <-done:
			s.drain()
			return
		case <-waitCh: // nil (blocks) when the queue is empty
			continue
		case <-s.wake:
		}
		// Woke early: quiesce the timer before the next Reset.
		if pending && !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}
}

// runDue delivers every entry whose due time has passed and returns the
// wait until the next one (pending == false when the queue is empty).
func (s *delaySched) runDue() (time.Duration, bool) {
	for {
		s.mu.Lock()
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return 0, false
		}
		if d := time.Until(s.queue[0].due); d > 0 {
			s.mu.Unlock()
			return d, true
		}
		e := s.queue[0]
		s.queue[0] = delayed{}
		s.queue = s.queue[1:]
		s.mu.Unlock()
		s.l.deliver(e.m)
		s.l.doneWork(false)
	}
}

// drain marks the scheduler stopped and discards everything queued,
// keeping the transport's in-flight accounting balanced.
func (s *delaySched) drain() {
	s.mu.Lock()
	s.stopped = true
	queue := s.queue
	s.queue = nil
	s.mu.Unlock()
	for range queue {
		s.l.doneWork(true)
	}
}
