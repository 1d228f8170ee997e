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

// checkCell verifies cell against its interference neighborhood, asking
// the cell and each neighbor for its set. (A runtime that checks every
// grant keeps a Holdings table instead, which asks no station.)
func (c *InterferenceChecker) checkCell(cell hexgrid.CellID) error {
	mine := c.use(cell)
	if mine.Empty() {
		return nil
	}
	for _, j := range c.grid.Interference(cell) {
		if theirs := c.use(j); mine.Intersects(theirs) {
			return CoChannel(cell, j, chanset.Intersect(mine, theirs))
		}
	}
	return nil
}

// CoChannel is the error of a Theorem 1 violation: cells a and b, within
// the reuse distance of each other, both hold the channels in shared.
func CoChannel(a, b hexgrid.CellID, shared chanset.Set) error {
	return fmt.Errorf("trace: co-channel interference: cells %d and %d share %v", a, b, shared)
}

// CheckAll verifies the whole grid (used at scenario end and in tests).
func (c *InterferenceChecker) CheckAll() error {
	for i := 0; i < c.grid.NumCells(); i++ {
		if err := c.checkCell(hexgrid.CellID(i)); err != nil {
			return err
		}
	}
	return nil
}

// Holdings is a runtime's own record of the channels each cell has been
// granted and not yet released, kept to check Theorem 1 against: one row
// of ⌈channels/64⌉ words per cell, every row in one flat slice. A grant
// is checked by testing one bit in each neighbor's row, and the whole
// grid by one AND per word of each interfering pair, without asking a
// single station for its set.
//
// The table is only as good as its agreement with the stations: the
// runtime sets a bit where it reports a grant, clears it where it hands a
// release to the station, and compares the row with the station's own
// set after every call into it (driver.Options.Check).
//
// Rows of different cells are different words, so goroutines owning
// disjoint sets of cells may write their own rows concurrently; reading
// another's row needs the writer parked.
type Holdings struct {
	grid *hexgrid.Grid
	w    int // words per row
	rows []uint64
}

// NewHoldings returns an empty table for a spectrum of channels channels
// over grid's cells.
func NewHoldings(grid *hexgrid.Grid, channels int) *Holdings {
	w := (channels + 63) / 64
	return &Holdings{grid: grid, w: w, rows: make([]uint64, grid.NumCells()*w)}
}

// Row is cell's row as a set: a view of the table, valid until the row
// next changes.
func (h *Holdings) Row(cell hexgrid.CellID) chanset.Set {
	off := int(cell) * h.w
	return chanset.FromWords(h.rows[off : off+h.w : off+h.w])
}

// bit locates channel ch of cell's row: its word and its mask.
func (h *Holdings) bit(cell hexgrid.CellID, ch chanset.Channel) (*uint64, uint64) {
	return &h.rows[int(cell)*h.w+int(ch>>6)], 1 << (uint(ch) & 63)
}

// Hold records that cell holds ch.
func (h *Holdings) Hold(cell hexgrid.CellID, ch chanset.Channel) {
	word, m := h.bit(cell, ch)
	*word |= m
}

// Drop records that cell no longer holds ch.
func (h *Holdings) Drop(cell hexgrid.CellID, ch chanset.Channel) {
	word, m := h.bit(cell, ch)
	*word &^= m
}

// Clash returns a neighbor of cell, within the reuse distance, whose row
// holds ch — the lowest-numbered one — and whether there is one. It is
// the whole check of a grant of ch to cell when every other row agrees
// with its station: any co-channel pair is found when its second member
// acquires.
func (h *Holdings) Clash(cell hexgrid.CellID, ch chanset.Channel) (hexgrid.CellID, bool) {
	off, m := int(ch>>6), uint64(1)<<(uint(ch)&63)
	for _, j := range h.grid.Interference(cell) {
		if h.rows[int(j)*h.w+off]&m != 0 {
			return j, true
		}
	}
	return -1, false
}

// Check verifies Theorem 1 over every interfering pair with a member in
// cells, a cell against its whole neighborhood in list order, and
// returns the first violation, lower cell first. A pair can only form
// when one of its cells gains a channel, so the cells granted one, or
// moved onto one, since the table was last clean are all a check needs.
// Calls may run concurrently while no row changes.
func (h *Holdings) Check(cells []hexgrid.CellID) error {
	for _, c := range cells {
		if err := h.checkCell(c); err != nil {
			return err
		}
	}
	return nil
}

// CheckAll verifies Theorem 1 over the whole grid: the first violation
// is that of the lowest cell in one, with its lowest co-channel neighbor.
func (h *Holdings) CheckAll() error {
	for c := range h.grid.NumCells() {
		if err := h.checkCell(hexgrid.CellID(c)); err != nil {
			return err
		}
	}
	return nil
}

// checkCell verifies cell's row against each neighbor's.
func (h *Holdings) checkCell(c hexgrid.CellID) error {
	mine := h.Row(c)
	if mine.Empty() {
		return nil
	}
	for _, j := range h.grid.Interference(c) {
		if theirs := h.Row(j); mine.Intersects(theirs) {
			return CoChannel(min(c, j), max(c, j), chanset.Intersect(mine, theirs))
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
