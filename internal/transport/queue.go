package transport

import "sync"

// Queue is the hand-off under the wall-clock runtime: many producers
// append, one consumer swaps out everything pending in one step. A
// producer pays a mutex and an append — no channel operation unless the
// queue was empty — and the consumer pays one lock per batch, not one
// channel receive per item. It is unbounded, so producers that feed
// each other never block on one another.
type Queue[T any] struct {
	mu     sync.Mutex
	items  []T
	closed bool
	wake   chan struct{} // capacity 1: a pending nudge is never worth stacking
}

// NewQueue returns an empty, open queue.
func NewQueue[T any]() *Queue[T] { return &Queue[T]{wake: make(chan struct{}, 1)} }

// Put appends v and reports whether the queue took it (false once it is
// closed). Only the empty → non-empty transition signals Wake.
func (q *Queue[T]) Put(v T) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.items = append(q.items, v)
	first := len(q.items) == 1
	q.mu.Unlock()
	if first {
		select {
		case q.wake <- struct{}{}:
		default:
		}
	}
	return true
}

// Wake is signalled when the queue goes from empty to non-empty. The
// consumer waits on it, then Takes; a wake-up may find nothing pending.
func (q *Queue[T]) Wake() <-chan struct{} { return q.wake }

// Take returns everything pending and keeps spare, emptied, as the
// queue's next backing slice: the consumer hands back the batch it has
// finished with (cleared, so the queue pins nothing) and allocation
// stops once both slices have grown to the burst size.
func (q *Queue[T]) Take(spare []T) []T {
	q.mu.Lock()
	items := q.items
	q.items = spare[:0]
	q.mu.Unlock()
	return items
}

// Close refuses every later Put and discards what is pending, returning
// how many items it dropped so the caller can account for them.
func (q *Queue[T]) Close() int {
	q.mu.Lock()
	n := len(q.items)
	q.items, q.closed = nil, true
	q.mu.Unlock()
	return n
}
