package sim

import (
	"math"
	"testing"
)

// PoisonPages turns on, for the rest of t, the pool's hook that
// overwrites every page handed back with records due at -1 (see
// poisonPages). Not for parallel tests: the hook is one package
// variable.
func PoisonPages(t testing.TB) {
	poisonPages = true
	t.Cleanup(func() { poisonPages = false })
}

// Perm fills a permutation of [0, n) using Fisher-Yates.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// pop removes and returns the queue's earliest record; the queue must
// not be empty.
func (q *queue) pop() Event {
	q.next(math.MaxInt64)
	return q.take()
}

// q is the engine's one queue.
func (e *Engine) q() *queue { return &e.shards[0].q }

// findRoute returns the mailbox for destination dst, or nil when the
// shard has never sent to dst.
func (s *pshard) findRoute(dst int32) *outRoute {
	lo, hi := 0, len(s.routes)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.routes[mid].dst < dst {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.routes) && s.routes[lo].dst == dst {
		return &s.routes[lo]
	}
	return nil
}
