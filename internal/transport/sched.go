package transport

import (
	"time"

	"repro/internal/message"
)

// delaySched is the single-goroutine delay scheduler behind Live's
// latency modeling: one FIFO Queue of (due, message) entries drained by
// one goroutine — replacing the old design of one sleeping pipeline
// goroutine per ordered (from, to) cell pair, which on a 7×7 reuse-2
// grid meant O(cells²) goroutines doing nothing but time.Sleep.
//
// FIFO argument: every message carries the same fixed delay, so due
// times follow schedule order up to the few nanoseconds between stamping
// and queueing, and the scheduler delivers strictly in queue order,
// sleeping until each entry is due. Hence delivery order == Put order,
// which preserves per-link (indeed global) Send-call FIFO with no
// priority queue. Unlike the per-link pipelines, the queue does not
// serialize a link's messages one Delay apart: each message is due Delay
// after its send, so back-to-back sends overlap in flight exactly as
// they would on a real network.
type delaySched struct {
	l *Live
	q *Queue[delayed]
}

// delayed is one message waiting out the modeled link latency.
type delayed struct {
	due time.Time
	m   message.Message
}

func newDelaySched(l *Live) *delaySched {
	return &delaySched{l: l, q: NewQueue[delayed]()}
}

// schedule stamps m's due time and enqueues it; it reports false when
// the scheduler has already drained (transport stopped), in which case
// the caller owns the drop accounting.
func (s *delaySched) schedule(m message.Message) bool {
	return s.q.Put(delayed{due: time.Now().Add(s.l.delay), m: m})
}

// loop is the scheduler goroutine: take a batch, deliver each entry once
// it is due, repeat. Exactly one per Live. On done it discards the rest
// of its batch and everything queued, keeping the transport's in-flight
// accounting balanced.
func (s *delaySched) loop(done <-chan struct{}) {
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	var batch []delayed
	for {
		select {
		case <-s.q.Wake():
		case <-done:
			s.l.discard(s.q.Close())
			return
		}
		batch = s.q.Take(batch)
		for i, e := range batch {
			if d := time.Until(e.due); d > 0 {
				timer.Reset(d)
				select {
				case <-timer.C:
				case <-done:
					s.l.discard(len(batch) - i + s.q.Close())
					return
				}
			}
			s.l.deliver(e.m)
			s.l.doneWork(false)
		}
		clear(batch)
	}
}
