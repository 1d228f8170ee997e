// Package trace provides the runtime correctness instruments promised by
// the paper's theorems: an online co-channel interference checker
// (Theorem 1 — safety) and a progress watchdog (Theorem 2 — the system
// never wedges). A structured event trace with a bounded ring buffer
// supports debugging protocol interleavings.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/sim"
)

// UseFunc reports the channels a cell currently uses. The checker only
// reads the set, during the call that asked for it, so a view of live
// state is fine.
type UseFunc func(hexgrid.CellID) chanset.Set

// InterferenceChecker validates Theorem 1: no channel is used
// concurrently by two cells within the reuse distance.
type InterferenceChecker struct {
	grid *hexgrid.Grid
	use  UseFunc
}

// NewInterferenceChecker builds a checker over the given grid, reading
// live usage through use.
func NewInterferenceChecker(grid *hexgrid.Grid, use UseFunc) *InterferenceChecker {
	return &InterferenceChecker{grid: grid, use: use}
}

// CheckCell verifies cell against its interference neighborhood. It is
// cheap enough to run on every acquisition: any violating pair is
// detected when its second member acquires.
func (c *InterferenceChecker) CheckCell(cell hexgrid.CellID) error {
	mine := c.use(cell)
	if mine.Empty() {
		return nil
	}
	for _, j := range c.grid.Interference(cell) {
		if theirs := c.use(j); mine.Intersects(theirs) {
			shared := chanset.Intersect(mine, theirs)
			return fmt.Errorf("trace: co-channel interference: cells %d and %d share %v", cell, j, shared)
		}
	}
	return nil
}

// CheckAll verifies the whole grid (used at scenario end and in tests).
func (c *InterferenceChecker) CheckAll() error {
	for i := 0; i < c.grid.NumCells(); i++ {
		if err := c.CheckCell(hexgrid.CellID(i)); err != nil {
			return err
		}
	}
	return nil
}

// Watchdog validates liveness: as long as requests are outstanding, the
// system must keep completing them. The driver reports request lifecycle
// events; Stalled detects a window with outstanding work and no
// completions.
type Watchdog struct {
	outstanding  int
	completions  uint64
	lastProgress sim.Time
}

// Submitted records a new request at time now.
func (w *Watchdog) Submitted(now sim.Time) {
	if w.outstanding == 0 {
		w.lastProgress = now
	}
	w.outstanding++
}

// Completed records a finished request (granted or denied) at time now.
func (w *Watchdog) Completed(now sim.Time) {
	w.outstanding--
	w.completions++
	w.lastProgress = now
}

// Cancelled records n requests withdrawn without completing — a
// truncate-at-horizon drain cancelling calls still in flight at the
// cutoff. Unlike Completed it counts no completion and marks no
// progress, so completion tallies only ever reflect real outcomes.
func (w *Watchdog) Cancelled(n int) {
	w.outstanding -= n
}

// Outstanding returns the number of in-flight requests.
func (w *Watchdog) Outstanding() int { return w.outstanding }

// Completions returns the number of finished requests.
func (w *Watchdog) Completions() uint64 { return w.completions }

// Stalled reports whether requests have been outstanding for longer than
// window ticks with no completion — a deadlock symptom.
func (w *Watchdog) Stalled(now, window sim.Time) bool {
	return w.outstanding > 0 && now-w.lastProgress > window
}

// EventKind classifies trace events.
type EventKind uint8

const (
	// EvRequest: a channel request was submitted.
	EvRequest EventKind = iota
	// EvGrant: a request was granted a channel.
	EvGrant
	// EvDeny: a request was denied (call dropped).
	EvDeny
	// EvRelease: a channel was released.
	EvRelease
	// EvMode: a station changed mode.
	EvMode
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvRequest:
		return "request"
	case EvGrant:
		return "grant"
	case EvDeny:
		return "deny"
	case EvRelease:
		return "release"
	case EvMode:
		return "mode"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one trace record.
type Event struct {
	At   sim.Time
	Kind EventKind
	Cell hexgrid.CellID
	Ch   chanset.Channel
	Info int64 // request id, or new mode for EvMode
}

// String renders the event for logs.
func (e Event) String() string {
	return fmt.Sprintf("[%8d] cell %-4d %-7s ch=%-3d info=%d", e.At, e.Cell, e.Kind, e.Ch, e.Info)
}

// Ring is a bounded trace buffer keeping the most recent events.
type Ring struct {
	events []Event
	next   int
	full   bool
}

// NewRing creates a ring holding up to n events.
func NewRing(n int) *Ring {
	if n <= 0 {
		panic("trace: ring size must be positive")
	}
	return &Ring{events: make([]Event, n)}
}

// Add appends an event, evicting the oldest when full.
func (r *Ring) Add(e Event) {
	r.events[r.next] = e
	r.next++
	if r.next == len(r.events) {
		r.next = 0
		r.full = true
	}
}

// Len returns the number of retained events.
func (r *Ring) Len() int {
	if r.full {
		return len(r.events)
	}
	return r.next
}

// Events returns retained events oldest-first.
func (r *Ring) Events() []Event {
	if !r.full {
		return append([]Event(nil), r.events[:r.next]...)
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.next:]...)
	out = append(out, r.events[:r.next]...)
	return out
}

// Dump renders the retained events, one per line.
func (r *Ring) Dump() string {
	var b strings.Builder
	for _, e := range r.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
