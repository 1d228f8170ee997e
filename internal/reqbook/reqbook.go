// Package reqbook is the request book both runtimes host channel
// requests in: the DES driver keeps one per shard, netrun one per node,
// each touched by one goroutine (the shard's worker, the node's loop).
//
// Each request in flight is a pointer-free record, chained per cell in
// submission order and free-listed by index; 0 (never handed out) ends a
// chain. A station is handed only its cell's oldest request — the
// paper's MSS serves one channel request at a time (DESIGN.md D3) — and
// the next one only after the oldest has concluded and its completion
// has run, so a cell's requests conclude in submission order and no map
// is needed.
package reqbook

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/sim"
)

// Rec is one request in flight, in 40 bytes.
type Rec struct {
	ID        alloc.RequestID
	Submitted sim.Time
	// Hold, Peer, Ch, Op and Flag are the host's: the DES driver keeps a
	// call's typed continuation in them.
	Hold sim.Time
	Peer hexgrid.CellID
	Ch   chanset.Channel
	next int32
	Op   uint8
	Flag bool
	// Answered marks a request its host has answered without the station
	// (netrun's deadline denial). HandOver drops it instead of handing it
	// over; if the station already holds it, its report is the host's to
	// absorb.
	Answered bool
	state    uint8
}

// A record's state with its station; concluded is a bit on top of
// starting or held.
const (
	waiting   uint8 = iota // booked, not handed over yet
	starting               // in the station's Request call
	held                   // the station holds it
	concluded uint8 = 4    // the station has reported on it; Finish pops it
)

// Chain is one cell's requests in a Book: its oldest and newest records
// (0: none).
type Chain struct{ head, tail int32 }

// Book is the records of one host. R is what the host's completions
// take.
type Book[R any] struct {
	recs       sim.Pages[Rec]
	free, used int32
	fns        []func(R) // the completions passed to Push, by record
}

// At returns record i.
func (b *Book[R]) At(i int32) *Rec { return b.recs.At(int(i)) }

// Push books r, completed by fn if fn is not nil, as the newest request
// of the cell whose chain c is, and returns its record's index. It hands
// nothing over: the host calls HandOver once it has accounted for r.
func (b *Book[R]) Push(c *Chain, r Rec, fn func(R)) int32 {
	i := b.free
	if i != 0 {
		b.free = b.At(i).next
	} else {
		i, b.used = max(b.used, 1), max(b.used, 1)+1
		b.recs.Grow(int(i))
	}
	if fn != nil {
		for int(i) >= len(b.fns) {
			b.fns = append(b.fns, nil)
		}
		b.fns[i] = fn
	}
	r.next, r.state = 0, waiting
	*b.At(i) = r
	if c.tail == 0 {
		c.head = i
	} else {
		b.At(c.tail).next = i
	}
	c.tail = i
	return i
}

// HandOver hands the cell's station st its oldest request, unless the
// station holds it already or it is concluding. While the station
// concludes each request inside its Request call, HandOver goes on to
// the next: a loop, not recursion, so a backlog the station grants on
// the spot concludes at one stack depth. An answered request is dropped
// unseen.
func (b *Book[R]) HandOver(c *Chain, st alloc.Allocator) {
	for c.head != 0 {
		h := b.At(c.head)
		if h.state != waiting {
			return
		}
		if h.Answered {
			b.pop(c)
			continue
		}
		h.state = starting
		id := h.ID
		st.Request(id)
		if c.head != 0 {
			if h = b.At(c.head); h.ID == id {
				h.state = held
				return
			}
		}
	}
}

// Check panics unless request id is the cell's oldest and at its station,
// the one request the station was handed; what names the station's
// report ("start", "grant", "denial"). It returns the record.
func (b *Book[R]) Check(c *Chain, cell hexgrid.CellID, what string, id alloc.RequestID) *Rec {
	if c.head == 0 {
		panic(fmt.Sprintf("reqbook: %s for request %d at cell %d, which has no request in flight", what, id, cell))
	}
	h := b.At(c.head)
	if h.ID != id {
		panic(fmt.Sprintf("reqbook: %s for request %d at cell %d, whose oldest request in flight is %d", what, id, cell, h.ID))
	}
	if h.state != starting && h.state != held {
		panic(fmt.Sprintf("reqbook: %s for request %d at cell %d, which its station does not hold", what, id, cell))
	}
	return h
}

// Conclude checks the station's report (what) on request id as Check
// does and marks the record concluded. It returns the record and its
// completion (nil when Push had none or the request was answered). The
// host runs the completion, then calls Finish; until then the record
// stays the cell's oldest, so a request booked by the completion waits
// behind it.
func (b *Book[R]) Conclude(c *Chain, cell hexgrid.CellID, what string, id alloc.RequestID) (Rec, func(R)) {
	h := b.Check(c, cell, what, id)
	h.state |= concluded
	return *h, b.takeFn(c.head)
}

// Finish removes the cell's concluded oldest request and, unless the
// station concluded it inside HandOver (which goes on by itself), hands
// the station the next.
func (b *Book[R]) Finish(c *Chain, st alloc.Allocator) {
	if b.pop(c) == held|concluded {
		b.HandOver(c, st)
	}
}

// Answer marks record i answered by its host and returns its completion
// (nil if none); see Rec.Answered.
func (b *Book[R]) Answer(i int32) func(R) {
	b.At(i).Answered = true
	return b.takeFn(i)
}

// Reset empties the book, keeping its pages; the host zeroes its chains.
func (b *Book[R]) Reset() {
	b.free, b.used = 0, 0
	clear(b.fns)
}

// pop frees the cell's oldest record and returns the state it was in. A
// freed record's ID is 0, so an index kept past its request's end
// (netrun's deadline queue) no longer matches it.
func (b *Book[R]) pop(c *Chain) uint8 {
	i := c.head
	r := b.At(i)
	state := r.state
	if c.head = r.next; c.head == 0 {
		c.tail = 0
	}
	r.ID, r.next, b.free = 0, b.free, i
	return state
}

func (b *Book[R]) takeFn(i int32) (fn func(R)) {
	if int(i) < len(b.fns) {
		fn, b.fns[i] = b.fns[i], nil
	}
	return fn
}
