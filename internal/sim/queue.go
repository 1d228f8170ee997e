package sim

import (
	"fmt"
	"slices"
	"unsafe"
)

// Kind tags an event record with what it means. The kernel executes
// KindFunc itself; every other kind belongs to the layer that registered
// a Handler for it (Engine.Handle / Shards.Handle) and is interpreted by
// a switch in that layer — no behaviour is captured in the record.
type Kind uint8

const (
	// KindFunc runs an arbitrary func() kept in the queue's side table
	// (At/After/AtOrigin/Cross and friends). Owned by the kernel.
	KindFunc Kind = iota
	// KindMessage delivers a protocol message to cell Cell. Owned by the
	// drivers (transport.DES, driver.Parallel).
	KindMessage
	// KindArrival is a candidate call arrival at Cell. Owned by
	// internal/traffic, like the three kinds below.
	KindArrival
	// KindRelease ends a call: Cell returns channel Ch. A handoff's
	// release-back is the same kind, relayed from the target cell.
	KindRelease
	// KindDepart is a call on (Cell, Ch) crossing towards cell Peer with
	// T ticks of holding time left.
	KindDepart
	// KindHandoff is the handoff request reaching target Cell: the call
	// came from cell Peer where it holds Ch, with T ticks left.
	KindHandoff
	numKinds
)

// Event is one queued event: a flat, pointer-free 48-byte record, so
// heaps and mailboxes are noscan memory the collector never traces. At
// and the packed key are the canonical order; the rest is an inline
// payload whose meaning the Kind's owner defines. Fields a kind does
// not use stay zero.
type Event struct {
	// At is the due time, set by the scheduling call.
	At Time
	// key packs the canonical (origin, counter) tie-break: origin+1 in
	// the high originBits, the per-origin counter below. Unattributed
	// serial events (origin -1) get high bits 0 and so sort first.
	key uint64
	// T is a time-valued argument: a message's Lamport time, a call's
	// remaining hold.
	T int64
	// Cell is the cell the event acts on (a message's destination).
	Cell int32
	// Ch is the channel argument.
	Ch int32
	// Peer is a second cell: a message's Lamport node, a handoff's
	// other end.
	Peer int32
	// ref is the event's side-table slot + 1, 0 for none (see queue).
	ref uint32
	// Kind selects the handler.
	Kind Kind
	// Tag holds the owner's sub-type bytes (a message's kind, request,
	// response and acquisition types and mode).
	Tag [5]uint8
}

// Key packing limits. 24 bits of origin cover 16.7 M cells — sixteen
// times the 10^6-cell grids the repo runs — and 40 bits of counter
// cover 10^12 events scheduled by one origin (or, for unattributed
// events, by one serial engine), some 500 times the drain backstop.
const (
	originBits  = 24
	counterBits = 64 - originBits
	// MaxOrigins is the number of distinct origin ids (0..MaxOrigins-1)
	// the packed key can carry.
	MaxOrigins = 1<<originBits - 1
	maxCounter = 1<<counterBits - 1
)

// packKey builds the tie-break word. Ordering packed keys as unsigned
// integers is ordering (origin, counter) lexicographically with origin
// -1 first — exactly the old three-field compare.
func packKey(origin int32, counter uint64) uint64 {
	if origin < -1 || origin >= MaxOrigins || counter > maxCounter {
		panicKey(origin, counter)
	}
	return uint64(origin+1)<<counterBits | counter
}

// panicKey is packKey's failure path, split out so packKey inlines.
func panicKey(origin int32, counter uint64) {
	panic(fmt.Sprintf("sim: event key overflow: origin %d (limit %d), counter %d (limit %d) — the packed (origin, counter) key is %d+%d bits",
		origin, MaxOrigins-1, counter, uint64(maxCounter), originBits, counterBits))
}

// Origin returns the cell that scheduled the event (-1 for unattributed
// serial events). For a message delivery it is the sender.
func (ev Event) Origin() int32 { return int32(ev.key>>counterBits) - 1 }

// Attachment is the part of an event that cannot live in the flat
// record: a message's rare Use set (as chanset words) and its
// transport sequence number, which the DES never stamps. The zero value
// means "none" and costs nothing; anything else is parked in the
// queue's side table until the event executes.
//
// Words is a view on both sides of the queue. The posting call copies
// it into a recycled side-table buffer before it returns, so the caller
// may hand in memory it goes on mutating (a station's live Use_i). The
// Handler reads the buffer in place: it is valid until HandleEvent
// returns and is reused by a later Post after that, so a handler that
// keeps the words must copy them.
type Attachment struct {
	Words []uint64
	Seq   uint64
}

func (a Attachment) empty() bool { return len(a.Words) == 0 && a.Seq == 0 }

// Handler interprets the events of the kinds it is registered for. att
// is the zero Attachment unless the event was posted with one; its
// Words are valid until HandleEvent returns.
type Handler interface {
	HandleEvent(ev Event, att Attachment)
}

// handlers is the per-kernel dispatch table, indexed by Kind.
type handlers [numKinds]Handler

func (h *handlers) set(k Kind, fn Handler) {
	if k == KindFunc || k >= numKinds {
		panic(fmt.Sprintf("sim: cannot register a handler for kind %d", k))
	}
	h[k] = fn
}

// sideEntry is what an event may park outside its flat record: the func
// of a KindFunc event or the attachment of a typed one.
type sideEntry struct {
	fn  func()
	att Attachment
}

func (e sideEntry) empty() bool { return e.fn == nil && e.att.empty() }

// sideTable is a free-listed slab: slots are reused LIFO, so it never
// grows past the number of entries simultaneously in flight. A released
// slot keeps its value; the func table zeroes its slot itself.
type sideTable[T any] struct {
	slots []T
	free  []uint32
}

// alloc returns the ref (slot + 1) of a free slot.
func (t *sideTable[T]) alloc() uint32 {
	if n := len(t.free); n > 0 {
		slot := t.free[n-1]
		t.free = t.free[:n-1]
		return slot + 1
	}
	var zero T
	t.slots = append(t.slots, zero)
	return uint32(len(t.slots))
}

// at is the slot behind ref; the pointer dies with the next alloc.
func (t *sideTable[T]) at(ref uint32) *T { return &t.slots[ref-1] }

func (t *sideTable[T]) release(ref uint32) { t.free = append(t.free, ref-1) }

func (t *sideTable[T]) reset() {
	clear(t.slots)
	t.slots = t.slots[:0]
	t.free = t.free[:0]
}

// queue is the event queue under both kernels: a 4-ary min-heap of flat
// records stored inline in a slice — wider nodes halve the tree depth
// versus a binary heap, and the value-typed slice avoids the interface
// boxing container/heap forces on every Push/Pop — plus the side tables
// for the events that carry more than the record holds: an event's ref
// indexes fns when its kind is KindFunc, atts otherwise.
type queue struct {
	heap []Event
	fns  sideTable[func()]
	atts sideTable[attSlot]
	// attWords is the attachments' word arena, pointer-free like the
	// heap: slot s owns attWords[s*attStride : (s+1)*attStride]. The
	// stride is the width of the widest set posted so far — one value
	// per run, the spectrum's — so slots are fixed-width and recycled
	// with their table slot.
	attWords  []uint64
	attStride int
}

// attSlot is a parked attachment less its words, which sit in attWords.
type attSlot struct {
	seq uint64
	n   uint32 // words in use, <= attStride
}

// less orders events by the canonical (at, origin, counter) key.
func less(a, b *Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.key < b.key
}

// push appends ev and restores the heap by sifting it up. Parents move
// down into the hole; ev is written once, where it lands.
func (q *queue) push(ev Event) {
	q.heap = append(q.heap, ev)
	h := q.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !less(&ev, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// pop removes and returns the minimum event: the last entry sifts down
// from the root, smaller children moving up into the hole.
func (q *queue) pop() Event {
	h := q.heap
	root := h[0]
	n := len(h) - 1
	x := h[n]
	h = h[:n]
	q.heap = h
	if n == 0 {
		return root
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if less(&h[c], &h[min]) {
				min = c
			}
		}
		if !less(&h[min], &x) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = x
	return root
}

// parkFunc stores fn and returns its ref.
func (q *queue) parkFunc(fn func()) uint32 {
	ref := q.fns.alloc()
	*q.fns.at(ref) = fn
	return ref
}

// parkAtt copies att into a free slot of the arena and returns its ref.
// The arena grows with the table (amortized), so once the table has seen
// the run's peak of attachments in flight, parking allocates nothing. A
// handler still reading an older array after a growth is unharmed:
// nothing writes to that array again.
func (q *queue) parkAtt(att Attachment) uint32 {
	n := len(att.Words)
	if n > q.attStride {
		q.restride(n)
	}
	ref := q.atts.alloc()
	off := int(ref-1) * q.attStride
	if need := off + q.attStride; need > len(q.attWords) {
		q.attWords = slices.Grow(q.attWords, need-len(q.attWords))[:need]
	}
	copy(q.attWords[off:], att.Words)
	*q.atts.at(ref) = attSlot{seq: att.Seq, n: uint32(n)}
	return ref
}

// restride widens every slot to stride words (a wider set than any
// before was posted: at most once per distinct width).
func (q *queue) restride(stride int) {
	words := make([]uint64, len(q.atts.slots)*stride, cap(q.atts.slots)*stride)
	for s, slot := range q.atts.slots {
		copy(words[s*stride:], q.attWords[s*q.attStride:][:slot.n])
	}
	q.attWords, q.attStride = words, stride
}

// attachment rebuilds the attachment behind ref as a view of the arena.
func (q *queue) attachment(ref uint32) Attachment {
	slot := *q.atts.at(ref)
	if slot.n == 0 {
		return Attachment{Seq: slot.seq}
	}
	off := int(ref-1) * q.attStride
	end := off + int(slot.n)
	return Attachment{Words: q.attWords[off:end:end], Seq: slot.seq}
}

// park stores e in the table ev's kind selects and sets ev's ref.
func (q *queue) park(ev *Event, e sideEntry) {
	if ev.Kind == KindFunc {
		ev.ref = q.parkFunc(e.fn)
	} else {
		ev.ref = q.parkAtt(e.att)
	}
}

// discard drops every queued event and side entry and returns how many
// events were dropped. Capacity is kept.
func (q *queue) discard() int {
	n := len(q.heap)
	q.heap = q.heap[:0]
	q.fns.reset()
	q.atts.reset()
	q.attWords = q.attWords[:0]
	return n
}

// reserve grows the heap's capacity to n events.
func (q *queue) reserve(n int) {
	grown := make([]Event, len(q.heap), n)
	copy(grown, q.heap)
	q.heap = grown
}

// exec runs one popped event: a KindFunc through its side-table func,
// anything else through the handler registered for its kind.
func (q *queue) exec(h *handlers, ev Event) {
	if ev.Kind == KindFunc {
		slot := q.fns.at(ev.ref)
		fn := *slot
		*slot = nil // the closure is collectable once it has run
		q.fns.release(ev.ref)
		fn()
		return
	}
	hd := h[ev.Kind]
	if hd == nil {
		panic(fmt.Sprintf("sim: no handler registered for event kind %d (at %d, origin %d)", ev.Kind, ev.At, ev.Origin()))
	}
	if ev.ref == 0 {
		hd.HandleEvent(ev, Attachment{})
		return
	}
	// The slot is released only after the handler returns: the handler
	// reads the words in place, and an attachment it posts meanwhile
	// must land in another slot.
	hd.HandleEvent(ev, q.attachment(ev.ref))
	q.atts.release(ev.ref)
}

// EventSize is the size of one queued event record in bytes (48): what
// the reserve budgets are charged in.
const EventSize = uint64(unsafe.Sizeof(Event{}))
