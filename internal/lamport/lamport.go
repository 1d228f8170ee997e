// Package lamport implements Lamport logical clocks with node-id
// tie-breaking, giving the total order on channel requests that every
// scheme in the paper relies on ("timestamps with the request messages").
package lamport

import "fmt"

// Stamp is a logical timestamp. Stamps are totally ordered: first by
// Time, then by Node. The zero Stamp precedes every stamp a clock can
// issue.
type Stamp struct {
	Time int64
	Node int32
}

// Less reports whether s precedes o in the total order. In the paper's
// notation, s.Less(o) means s is the "older" (higher priority) request.
func (s Stamp) Less(o Stamp) bool {
	if s.Time != o.Time {
		return s.Time < o.Time
	}
	return s.Node < o.Node
}

// Equal reports whether the two stamps are identical.
func (s Stamp) Equal(o Stamp) bool { return s == o }

// IsZero reports whether s is the zero stamp (never issued by a clock).
func (s Stamp) IsZero() bool { return s == Stamp{} }

// String implements fmt.Stringer.
func (s Stamp) String() string { return fmt.Sprintf("%d.%d", s.Time, s.Node) }

// Clock is a Lamport clock owned by one node. It is not safe for
// concurrent use; in the live runtime each clock is touched only by its
// station's handlers, which the node's loop runs one at a time.
type Clock struct {
	node int32
	time int64
}

// NewClock returns a clock for the given node id.
func NewClock(node int32) *Clock { return &Clock{node: node} }

// Node returns the owning node id.
func (c *Clock) Node() int32 { return c.node }

// Now returns the current stamp without advancing the clock.
func (c *Clock) Now() Stamp { return Stamp{Time: c.time, Node: c.node} }

// Tick advances the clock for a local event and returns the new stamp.
func (c *Clock) Tick() Stamp {
	c.time++
	return c.Now()
}

// Witness merges an observed remote stamp into the clock (receive rule:
// local time becomes max(local, remote) + 1).
func (c *Clock) Witness(s Stamp) Stamp {
	if s.Time > c.time {
		c.time = s.Time
	}
	c.time++
	return c.Now()
}
