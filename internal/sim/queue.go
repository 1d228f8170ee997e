package sim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
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
	// fan is nonzero in a fan record, which stands for several events at
	// once (PostFan). Only the kernel can set it, and a Handler never
	// sees one, so an event handed to a scheduling call always has 0.
	fan uint16
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

// CheckOrigins reports whether a kernel can address n distinct origins
// (one per cell): nil up to MaxOrigins, a descriptive error past it.
// Constructors that return errors call it; NewShards panics with it.
func CheckOrigins(n int) error {
	if n > MaxOrigins {
		return fmt.Errorf("sim: %d cells exceed the %d origins the packed (origin, counter) event key can address (%d bits of origin)",
			n, MaxOrigins, originBits)
	}
	return nil
}

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

// drawKeys advances origin's counter *cnt by n and returns the key of
// the first of the n consecutive events; the other keys follow it by
// plain addition, the last one having been range-checked here.
func drawKeys(cnt *uint64, origin int32, n int) uint64 {
	first := packKey(origin, *cnt+1)
	*cnt += uint64(n)
	if *cnt > maxCounter {
		panicKey(origin, *cnt)
	}
	return first
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
// it into a recycled side-table buffer before it returns — or finds the
// same bytes already parked there and takes a reference (attArena) — so
// the caller may hand in memory it goes on mutating (a station's live
// Use_i). The Handler reads the buffer in place: it is valid until
// HandleEvent returns and may be reused by a later Post after that, so a
// handler that keeps the words must copy them.
type Attachment struct {
	Words []uint64
	Seq   uint64
}

// Empty reports whether a is the zero Attachment, which parks nothing.
func (a Attachment) Empty() bool { return len(a.Words) == 0 && a.Seq == 0 }

// Handler interprets the events of the kinds it is registered for. att
// is the zero Attachment unless the event was posted with one; its
// Words are valid until HandleEvent returns.
type Handler interface {
	HandleEvent(ev Event, att Attachment)
}

// Fanout resolves the destinations of fan records (PostFan): the kernel
// knows a destination only as an index into its origin's neighbour
// list, and the list belongs to the driver.
type Fanout interface {
	// Neighbor returns the i-th cell of origin's neighbour list. The
	// list must not change while a fan record of that origin is queued.
	Neighbor(origin int32, i int) int32
}

// handlers is the per-kernel dispatch table: a Handler per Kind and the
// resolver of fan records.
type handlers struct {
	kind [numKinds]Handler
	fan  Fanout
}

func (h *handlers) set(k Kind, fn Handler) {
	if k == KindFunc || k >= numKinds {
		panic(fmt.Sprintf("sim: cannot register a handler for kind %d", k))
	}
	h.kind[k] = fn
}

// of returns the handler of ev's kind.
func (h *handlers) of(ev *Event) Handler {
	hd := h.kind[ev.Kind]
	if hd == nil {
		panic(fmt.Sprintf("sim: no handler registered for event kind %d (at %d, origin %d)", ev.Kind, ev.At, ev.Origin()))
	}
	return hd
}

// sideEntry is what a scheduling call hands the queue beside the flat
// record: the func of a KindFunc event or the attachment of a typed one.
type sideEntry struct {
	fn  func()
	att Attachment
}

func (e sideEntry) empty() bool { return e.fn == nil && e.att.Empty() }

// Paged storage. The queue's tables grow by pages of pageSlots slots
// that are never copied or abandoned once allocated, so the bytes a
// table has ever allocated are the bytes it holds: an append-grown
// array allocates about 3.3 times its final size on the way up and
// leaves the collector that much to chase, and a heap that bursts —
// the warm start's — paid for it in peak resident memory. A table
// still smaller than one page is a single array that doubles, as a
// slice would: a queue that stays small (16 shards × a few hundred
// events) costs what it did before paging.
const (
	pageShift = 10
	pageSlots = 1 << pageShift // 48 KB of events
	pageMask  = pageSlots - 1
)

// paged is a table of slots, each width elements of T, in pages.
type paged[T any] struct {
	tab [][]T
	// cap is the number of slots the pages hold: the first page's while
	// it is the only one (and possibly short), whole pages after that.
	cap int
}

// growFirst makes a first page still short of pageSlots hold n slots, a
// whole page at most — the one copy a table ever makes of its contents —
// and reports whether there was such a page; a table of whole pages
// grows by add.
func (p *paged[T]) growFirst(n, width int) bool {
	if p.cap >= pageSlots {
		return false
	}
	if n = min(n, pageSlots); n > p.cap {
		first := make([]T, n*width)
		if len(p.tab) == 0 {
			p.tab = append(p.tab, first)
		} else {
			copy(first, p.tab[0])
			p.tab[0] = first
		}
		p.cap = n
	}
	return true
}

// add appends a whole page to a table whose first page is whole.
func (p *paged[T]) add(pg []T) {
	p.tab = append(p.tab, pg)
	p.cap += pageSlots
}

// Pages is a paged table for a caller outside the kernel: slots numbered
// from 0 that never move once their page is whole, the first page
// doubling from 16 slots as the kernel's own tables' does.
type Pages[T any] struct{ p paged[T] }

// At returns slot i, which Grow has made room for.
func (t *Pages[T]) At(i int) *T { return &t.p.tab[i>>pageShift][i&pageMask] }

// Grow makes room for slot i, the first it has not made room for yet.
func (t *Pages[T]) Grow(i int) {
	if i >= t.p.cap && !t.p.growFirst(max(16, 2*t.p.cap), 1) {
		t.p.add(make([]T, pageSlots))
	}
}

// bytes is the memory the pages hold.
func (p *paged[T]) bytes() uint64 {
	var zero T
	n := 0
	for _, pg := range p.tab {
		n += len(pg)
	}
	return uint64(n) * uint64(unsafe.Sizeof(zero))
}

// pagePool is a kernel's stock of whole event pages, the only source of
// one. A heap past its first page, a far log and a cross-shard mailbox
// from its first record draw on it and hand back what they empty, so no table is
// sized for a worst case the others never see at the same time. The pool
// never frees, and allocates only when every page it holds is out or
// when a Reserve stocks it: the pages it holds, out + len(free), are the
// most that were ever out at once or the stock, whichever is more.
type pagePool struct {
	mu   sync.Mutex // shard workers and flush workers share the pool
	free [][]Event
	out  int // pages handed out now
}

// poisonPages makes put overwrite every page with records due at -1,
// which sort before anything a run can queue: a table that reads a slot
// of a recycled page before writing it runs one. Set by tests only.
var poisonPages bool

func poison(pg []Event) {
	for i := range pg {
		pg[i] = Event{At: -1}
	}
}

func (p *pagePool) get() []Event {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.out++
	if n := len(p.free); n > 0 {
		pg := p.free[n-1]
		p.free = p.free[:n-1]
		return pg
	}
	return make([]Event, pageSlots)
}

// stock adds n new pages to the free list: a reserve taken ahead of the
// records that will need it.
func (p *pagePool) stock(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for range n {
		p.free = append(p.free, make([]Event, pageSlots))
	}
}

func (p *pagePool) put(pg []Event) {
	if poisonPages {
		poison(pg)
	}
	p.mu.Lock()
	p.out--
	p.free = append(p.free, pg)
	p.mu.Unlock()
}

// funcTable parks the funcs of KindFunc events in a free-listed slab:
// slots are reused LIFO, so it never grows past the number of funcs
// simultaneously in flight. It is two plain slices, not paged: no
// workload that scales schedules funcs (messages, call events and
// completions are typed), and a func event already pays one indirection
// more than a typed one.
type funcTable struct {
	slots []func()
	free  []uint32
}

// park stores fn and returns its ref (slot + 1).
func (t *funcTable) park(fn func()) uint32 {
	if n := len(t.free); n > 0 {
		slot := t.free[n-1]
		t.free = t.free[:n-1]
		t.slots[slot] = fn
		return slot + 1
	}
	t.slots = append(t.slots, fn)
	return uint32(len(t.slots))
}

// take returns the func behind ref and frees its slot, dropping the
// reference so the closure is collectable once it has run.
func (t *funcTable) take(ref uint32) func() {
	fn := t.slots[ref-1]
	t.slots[ref-1] = nil
	t.free = append(t.free, ref-1)
	return fn
}

func (t *funcTable) reset() {
	clear(t.slots)
	t.slots, t.free = t.slots[:0], t.free[:0]
}

// attHeader is the number of words before a stored attachment's set,
// in an arena slot and in a mailbox entry (outRoute) alike: the sequence
// number, then the count of set words in use in the low half of a word
// whose high half belongs to the table. The arena counts there the
// queued events that refer to the slot — zero in a free slot, whose
// first word is the ref of the next free one; a mailbox keeps there the
// slot its entry was parked in at the flush.
const (
	attHeader = 2
	attRef    = 1 << 32 // one reference, in the second header word
)

// attOf rebuilds the attachment stored at e as a view of it.
func attOf(e []uint64) Attachment {
	n := attHeader + int(uint32(e[1]))
	if n == attHeader {
		return Attachment{Seq: e[0]}
	}
	return Attachment{Words: e[attHeader:n:n], Seq: e[0]}
}

// holds reports whether the attachment stored at e is exactly att.
func holds(e []uint64, att Attachment) bool {
	n := len(att.Words)
	return e[0] == att.Seq && uint32(e[1]) == uint32(n) && slices.Equal(e[attHeader:attHeader+n], att.Words)
}

// attArena parks attachments in one pointer-free word table: slot s is
// width words, the header and then room for the widest set posted so
// far — one value per run, the spectrum's — so slots are fixed-width
// and recycled LIFO through a free list threaded through the slots
// themselves.
//
// A slot is stored once however many events carry it: a post whose
// attachment is, word for word, the one a live slot holds takes a
// reference (share) instead of a copy, and the last delivery frees the
// slot (release). Which slot to look at is the caller's hint — the
// kernels remember, per origin, where its last attachment went (attMemo)
// — and only a hint: sharing is decided by the slot's content, so a
// stale hint costs a copy, never a wrong word.
type attArena struct {
	words paged[uint64]
	width int    // words per slot
	n     int    // slots handed out so far
	free  uint32 // ref of the slot released last, 0 for none
}

// slot returns the words of the slot behind ref.
func (a *attArena) slot(ref uint32) []uint64 {
	s := int(ref - 1)
	off := (s & pageMask) * a.width
	return a.words.tab[s>>pageShift][off : off+a.width : off+a.width]
}

// park copies att into a free slot, held by one reference, and returns
// its ref. Once the arena has seen the run's peak of attachments in
// flight, parking allocates nothing. A handler still reading a first
// page that has since been doubled, or pages that have since been
// widened, is unharmed: nothing writes to the old arrays again.
func (a *attArena) park(att Attachment) uint32 {
	if need := attHeader + len(att.Words); need > a.width {
		a.widen(need)
	}
	ref := a.free
	var slot []uint64
	if ref != 0 {
		slot = a.slot(ref)
		a.free = uint32(slot[0])
	} else {
		if a.n == a.words.cap && !a.words.growFirst(max(4, 2*a.words.cap), a.width) {
			a.words.add(make([]uint64, pageSlots*a.width))
		}
		a.n++
		ref = uint32(a.n)
		slot = a.slot(ref)
	}
	slot[0], slot[1] = att.Seq, attRef|uint64(len(att.Words))
	copy(slot[attHeader:], att.Words)
	return ref
}

// share takes one more reference to the slot behind ref if that slot is
// live and holds exactly att, and reports whether it did. Any ref is
// safe to ask about — zero, freed, recycled for another attachment,
// left over from before a reset: a slot past n has not been handed out
// since the reset and a free one counts no reference.
func (a *attArena) share(ref uint32, att Attachment) bool {
	if ref == 0 || int(ref) > a.n {
		return false
	}
	slot := a.slot(ref)
	if slot[1] < attRef || !holds(slot, att) {
		return false
	}
	slot[1] += attRef
	return true
}

// retain takes one more reference to the live slot behind ref.
func (a *attArena) retain(ref uint32) { a.slot(ref)[1] += attRef }

// widen rebuilds the arena with width words per slot (a wider set than
// any before was posted: at most once per distinct width, and before
// anything is parked in a run that has one width).
func (a *attArena) widen(width int) {
	old := *a
	a.words, a.width = paged[uint64]{}, width
	a.words.growFirst(old.words.cap, width)
	for a.words.cap < old.words.cap {
		a.words.add(make([]uint64, pageSlots*width))
	}
	for ref := uint32(1); int(ref) <= old.n; ref++ {
		copy(a.slot(ref), old.slot(ref))
	}
}

// get rebuilds the attachment behind ref as a view of the arena.
func (a *attArena) get(ref uint32) Attachment { return attOf(a.slot(ref)) }

// release drops one reference to the slot behind ref and frees the slot
// when that was the last.
func (a *attArena) release(ref uint32) {
	slot := a.slot(ref)
	if slot[1] -= attRef; slot[1] >= attRef {
		return
	}
	slot[0], slot[1] = uint64(a.free), 0
	a.free = ref
}

func (a *attArena) reset() { a.n, a.free = 0, 0 }

// heapRoot is the slot of the heap's root. With the root at 3 the
// children of slot i are 4(i-2) .. 4(i-2)+3 and the parent of c is
// c/4+2: every sibling group starts at a multiple of four, so a group
// never straddles a page (or a cache line pair) and a sift-down level
// costs one page lookup. Slots 0-2 are unused.
const heapRoot = 3

// queue is the event queue under both kernels, in three parts that
// together hold every record in one total order, (At, key): a 4-ary
// min-heap of flat records in paged storage for those due within the
// near horizon of the queue's clock, and for every record of a small
// queue — wider nodes halve the tree depth versus a binary heap, and
// value-typed pages avoid the interface boxing container/heap forces on
// every Push/Pop — and, for the rest, the far table of far.go, an
// unsorted log that is sorted a batch at a time as it comes due. next
// yields the lesser of the heap's top and the batch's head. Beside them
// are the side tables for the events that carry more than the record
// holds: an event's ref indexes fns when its kind is KindFunc, atts
// otherwise. The first pages of the heap and of the far table are the
// queue's own; every other event page comes from the kernel's pool.
//
// A record is one event or, with fan set, one fan record (PostFan):
// several events of one origin and one due time, delivered one handler
// call each when the record is popped. pending and executed count
// events, never records.
type queue struct {
	heap paged[Event]
	pool *pagePool
	n    int // records in the heap: slots heapRoot .. heapRoot+n-1
	far  farLog
	// records counts the records queued in the heap and the far table.
	records int
	// clock is the due time of the record taken last: a record due fewer
	// than near ticks after it goes on the heap.
	clock, near Time
	// fromBatch says where the record next returned lies.
	fromBatch bool
	fns       funcTable
	atts      attArena

	pending  int    // events queued and not yet executed
	executed uint64 // events executed
	pops     uint64 // records popped
	// attParked and attShared count the attachments posted here: stored,
	// and satisfied by a slot already holding the same bytes.
	attParked, attShared uint64
	// peakRecords and peakPending are the high-water marks of records and
	// pending.
	peakRecords, peakPending int
	// pastCutoff counts the records posted here for after the kernel's
	// cutoff and never queued.
	pastCutoff uint64
	// stop ends a fan record's expansion after the delivery under way
	// (Engine.Stop).
	stop bool
}

// less orders events by the canonical (at, origin, counter) key.
func less(a, b *Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.key < b.key
}

// lessBit is less(a, b) as 1 or 0, computed without a branch.
func lessBit(a, b *Event) int {
	return b2i(a.At < b.At) | b2i(a.At == b.At)&b2i(a.key < b.key)
}

// b2i is 1 for true and 0 for false; the compiler makes it a SETcc.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// top is the heap's earliest record; the heap must not be empty.
func (q *queue) top() *Event { return &q.heap.tab[0][heapRoot] }

// next returns the earliest record if it is due at or before until, and
// nil if none is. When the batch is spent and the log's earliest record
// may precede the heap's top, it refills the batch first, on the caller's
// goroutine: a shard's own worker, inside its window.
func (q *queue) next(until Time) *Event {
	f := &q.far
	if !f.batched() && f.n > f.bend && f.min <= until && (q.n == 0 || f.min <= q.top().At) {
		f.refill(q.pool)
	}
	if f.batched() {
		if b := f.at(f.head); q.n == 0 || less(b, q.top()) {
			q.fromBatch = true
			if b.At <= until {
				return b
			}
			return nil
		}
	}
	q.fromBatch = false
	if q.n > 0 && q.top().At <= until {
		return q.top()
	}
	return nil
}

// take removes and returns the record next returned last; nothing may
// have been queued since.
func (q *queue) take() Event {
	q.pops++
	q.records--
	var ev Event
	if q.fromBatch {
		ev = q.far.pop(q.pool)
	} else {
		ev = q.popHeap()
	}
	q.clock = ev.At
	return ev
}

// lowest returns the due time of the earliest record, and false when
// the queue is empty. It never refills: the log's earliest due time is
// kept as records are appended.
func (q *queue) lowest() (Time, bool) {
	if q.records == 0 {
		return 0, false
	}
	lo, f := Time(math.MaxInt64), &q.far
	if q.n > 0 {
		lo = q.top().At
	}
	if f.batched() {
		lo = min(lo, f.at(f.head).At)
	}
	if f.n > f.bend {
		lo = min(lo, f.min)
	}
	return lo, true
}

// owe counts n more events as queued.
func (q *queue) owe(n int) {
	q.pending += n
	if q.pending > q.peakPending {
		q.peakPending = q.pending
	}
}

// post queues ev, which stands for n events (1 unless it is a fan
// record).
func (q *queue) post(ev Event, n int) {
	q.owe(n)
	q.push(ev)
}

// push adds the record ev: to the far log when it is due near ticks or
// more after the clock and after everything the batch may hold, and the
// queue holds more than smallQueue records; otherwise to the heap,
// sifting it up — parents move down into the hole, and ev is written
// once, where it lands. Times are never negative, so the difference
// cannot overflow.
func (q *queue) push(ev Event) {
	if q.records++; q.records > q.peakRecords {
		q.peakRecords = q.records
	}
	if ev.At-q.clock >= q.near && ev.At > q.far.last && q.records > smallQueue {
		q.far.add(q.pool, ev)
		return
	}
	i := heapRoot + q.n
	if i >= q.heap.cap && !q.heap.growFirst(max(4, 2*q.heap.cap), 1) {
		q.heap.add(q.pool.get())
	}
	q.n++
	tab := q.heap.tab
	hole := &tab[i>>pageShift][i&pageMask]
	for i > heapRoot {
		i = i/4 + 2
		parent := &tab[i>>pageShift][i&pageMask]
		if !less(&ev, parent) {
			break
		}
		*hole = *parent
		hole = parent
	}
	*hole = ev
}

// popHeap removes and returns the heap's earliest record: the last one
// sifts down from the root, smaller children moving up into the hole.
func (q *queue) popHeap() Event {
	tab := q.heap.tab
	hole := &tab[0][heapRoot]
	root := *hole
	q.n--
	end := heapRoot + q.n // the last record's slot; the heap's end once it has moved
	x := tab[end>>pageShift][end&pageMask]
	if q.heap.cap-end >= 2*pageSlots {
		q.dropPage() // one empty page of hysteresis stays
	}
	for first := 4 * (heapRoot - 2); first < end; {
		group := tab[first>>pageShift][first&pageMask:]
		m := 0
		if end-first >= 4 {
			// A whole group, as every one is but the last: pick its least
			// child in a two-round tournament that never branches on a
			// key — a branch on which child wins mispredicts about every
			// other level.
			g := (*[4]Event)(group)
			m = lessBit(&g[1], &g[0])
			r := 2 + lessBit(&g[3], &g[2])
			m += (r - m) * lessBit(&g[r], &g[m])
		} else {
			for c := 1; c < end-first; c++ {
				if less(&group[c], &group[m]) {
					m = c
				}
			}
		}
		if !less(&group[m], &x) {
			break
		}
		*hole = group[m]
		hole = &group[m]
		first = 4 * (first + m - 2)
	}
	*hole = x
	return root
}

// attach parks att for one more event and returns the ref the event is
// to carry. *memo is the poster's hint: the ref attach returned the last
// time it was handed this memo (zero at first). While the slot behind it
// is still queued and att repeats its bytes, the event shares that slot;
// otherwise att is copied into a fresh one, which *memo then names.
func (q *queue) attach(memo *uint32, att Attachment) uint32 {
	if q.atts.share(*memo, att) {
		q.attShared++
	} else {
		q.attParked++
		*memo = q.atts.park(att)
	}
	return *memo
}

// dropPage hands the heap's last page, which holds no record, to the pool.
func (q *queue) dropPage() {
	last := len(q.heap.tab) - 1
	q.pool.put(q.heap.tab[last])
	q.heap.tab[last] = nil
	q.heap.tab = q.heap.tab[:last]
	q.heap.cap -= pageSlots
}

// discard drops every queued record and side entry and returns how many
// events were dropped. Every page but the heap's and the far table's
// own goes back to the pool; the side tables keep theirs.
func (q *queue) discard() int {
	dropped := q.pending
	q.n, q.pending, q.records = 0, 0, 0
	for len(q.heap.tab) > 1 {
		q.dropPage()
	}
	q.far.release(q.pool)
	q.fns.reset()
	q.atts.reset()
	return dropped
}

// capacity is the number of records the queue has room for: the small
// queue's in the heap's first page and the far table's.
func (q *queue) capacity() int {
	return min(max(q.heap.cap-heapRoot, 0), smallQueue) + q.far.capacity()
}

// reserve readies the queue for n records: the heap's first page for
// those a small queue keeps there, and the far table — where the records
// a driver can count ahead, a call's hang-up and a cell's next arrival,
// go — for the rest, stocking the pool with its pages now.
func (q *queue) reserve(n int) {
	small := min(n, smallQueue)
	q.heap.growFirst(small+heapRoot, 1)
	q.far.reserve(q.pool, n-small)
}

// Fan records. A send to many cells of one origin's neighbour list is
// one record: At, the origin and every payload field are shared, the
// destinations are a 64-bit mask over one 64-index word of the list —
// low half in Cell, high half in ref, which a fan record has no other
// use for, the word's number plus one in fan — and key is the key of the
// first destination still owed; the others hold the consecutive
// counters after it, in ascending index order, exactly the keys that
// many single posts would have drawn. No other key can lie between
// consecutive counters of one origin, so when the record is popped
// nothing queued sorts between its deliveries and they run back to
// back; only something a handler queues meanwhile — a zero-delay post
// from a lower-numbered origin — can, and exec checks for that.

// MaxFanNeighbors is the length of the longest neighbour list a fan
// record can index.
const MaxFanNeighbors = 64 * (1<<16 - 1)

// FanWord returns word w of a neighbour-index mask over an n-cell list
// — bit b of word w stands for index 64w+b, PostFan's convention — where
// a nil mask means every index.
func FanWord(mask []uint64, n, w int) uint64 {
	if mask != nil {
		return mask[w]
	}
	if rest := n - 64*w; rest < 64 {
		return 1<<uint(rest) - 1
	}
	return ^uint64(0)
}

func (ev *Event) fanMask() uint64 { return uint64(uint32(ev.Cell)) | uint64(ev.ref)<<32 }

func (ev *Event) setFanMask(m uint64) { ev.Cell, ev.ref = int32(uint32(m)), uint32(m>>32) }

// fanRecord turns ev into the fan record of mask over the given word of
// the origin's neighbour list, with key the first of its keys.
func (h *handlers) fanRecord(ev Event, at Time, key uint64, word int, mask uint64) Event {
	if h.fan == nil {
		panic("sim: PostFan without a Fanout to resolve destinations (SetFanout)")
	}
	if word < 0 || word >= MaxFanNeighbors/64 {
		panic(fmt.Sprintf("sim: PostFan over word %d of a neighbour list; a fan record reaches %d neighbours", word, MaxFanNeighbors))
	}
	ev.At, ev.key, ev.fan = at, key, uint16(word+1)
	ev.setFanMask(mask)
	return ev
}

// exec runs the popped record ev and returns how many events that was:
// one — a KindFunc through its side-table func, anything else through
// the handler registered for its kind — or, for a fan record, one per
// destination in key order, until the record is spent, budget events
// have run, stop is set, or a handler has queued something that sorts
// before the next delivery; what is left then goes back on the heap as
// a shorter fan record.
func (q *queue) exec(h *handlers, ev Event, budget uint64) uint64 {
	if ev.fan != 0 {
		return q.execFan(h, ev, budget)
	}
	q.pending--
	q.executed++
	if ev.Kind == KindFunc {
		q.fns.take(ev.ref)()
		return 1
	}
	hd := h.of(&ev)
	if ev.ref == 0 {
		hd.HandleEvent(ev, Attachment{})
		return 1
	}
	// The slot is released only after the handler returns: the handler
	// reads the words in place, and an attachment it posts meanwhile
	// must land in another slot.
	hd.HandleEvent(ev, q.atts.get(ev.ref))
	q.atts.release(ev.ref)
	return 1
}

func (q *queue) execFan(h *handlers, ev Event, budget uint64) uint64 {
	hd := h.of(&ev)
	origin, base, mask := ev.Origin(), int(ev.fan-1)<<6, ev.fanMask()
	fan := ev.fan
	ev.ref, ev.fan = 0, 0
	for done := uint64(1); ; done++ {
		ev.Cell = h.fan.Neighbor(origin, base+bits.TrailingZeros64(mask))
		mask &= mask - 1
		q.pending--
		q.executed++
		hd.HandleEvent(ev, Attachment{})
		if mask == 0 {
			return done
		}
		ev.key++
		// Only the heap can hold a record that sorts before the next
		// delivery: one queued by the handler meanwhile, due now. Nothing
		// queued before the record was taken lies between its keys.
		if done == budget || q.stop || (q.n > 0 && less(q.top(), &ev)) {
			ev.fan = fan
			ev.setFanMask(mask)
			q.push(ev)
			return done
		}
	}
}

// EventSize is the size of one queued event record in bytes (48): what
// the reserve budgets are charged in.
const EventSize = uint64(unsafe.Sizeof(Event{}))

// Footprint is what a kernel's queues hold and have held: the memory of
// each table and the high-water marks of the queue itself.
type Footprint struct {
	// HeapPages and HeapBytes are the event heaps' pages.
	HeapPages int
	HeapBytes uint64
	// LogPages and LogBytes are the far tables' pages — the far logs'
	// and their batches' — each table's own page, whole or short, and
	// the rest out of the pool; LogRecords is what the tables hold now, a
	// part of Records.
	LogPages   int
	LogBytes   uint64
	LogRecords int
	// Refills counts the batches filled from a far log, and Batched the
	// records they moved: every record the queues took from a far table.
	Refills, Batched uint64
	// AttPages and AttBytes are the attachment arenas'.
	AttPages int
	AttBytes uint64
	// SideBytes is the func side tables.
	SideBytes uint64
	// RouteBytes is what the cross-shard mailboxes hold — the pages of
	// records not yet merged, their func lists and word arenas (zero at
	// one shard).
	RouteBytes uint64
	// PoolPages and PoolBytes are the event pages the kernel's pool has
	// allocated, which is the most that were ever out of it at once — in
	// heaps and far tables past their own first page, where HeapPages and
	// LogPages count them too, and in mailboxes — or the stock Reserve put
	// in, whichever is more. PoolOut is how many are out now.
	PoolPages, PoolOut int
	PoolBytes          uint64
	// AttParked and AttShared split the attachments posted so far into
	// those that were stored — an arena slot or a mailbox entry written —
	// and those that cost a reference to one already holding the same
	// bytes. AttShared / (AttParked + AttShared) is the sharing ratio.
	AttParked, AttShared uint64
	// Records and Events are what is queued now: heap, far-table and
	// mailbox records, and the events they stand for (Pending).
	Records, Events int
	// PeakRecords and PeakEvents are the high-water marks of the two,
	// taken per queue and summed: what the heaps had to grow to.
	PeakRecords, PeakEvents int
	// Pops counts records popped; Executed()/Pops is the mean fan-out.
	Pops uint64
	// PastCutoff counts the records — a fan record once — posted for
	// after the kernel's cutoff (SetCutoff). None of them is queued: a
	// truncated run would discard them at the cutoff without running
	// one, and until then they would only hold heap slots, mailbox slots
	// and parked attachments and funcs — at a warm start, the hang-ups
	// of most of the calls it seeds, through the burst that sets the
	// page pool's high-water mark.
	PastCutoff uint64
}

// addTo reports the pool's share of a kernel's footprint.
func (p *pagePool) addTo(f *Footprint) {
	p.mu.Lock()
	f.PoolPages, f.PoolOut = p.out+len(p.free), p.out
	p.mu.Unlock()
	f.PoolBytes = uint64(f.PoolPages) * pageSlots * EventSize
}

// addTo accumulates q's share of a kernel's footprint.
func (q *queue) addTo(f *Footprint) {
	f.HeapPages += len(q.heap.tab)
	f.HeapBytes += q.heap.bytes()
	pages, bytes := q.far.pages()
	f.LogPages += pages
	f.LogBytes += bytes
	f.LogRecords += q.far.records()
	f.Refills += q.far.refills
	f.Batched += q.far.moved
	f.AttPages += len(q.atts.words.tab)
	f.AttBytes += q.atts.words.bytes()
	f.SideBytes += uint64(cap(q.fns.slots))*uint64(unsafe.Sizeof(q.fns.slots[0])) + uint64(cap(q.fns.free))*4
	f.Records += q.records
	f.Events += q.pending
	f.PeakRecords += q.peakRecords
	f.PeakEvents += q.peakPending
	f.Pops += q.pops
	f.PastCutoff += q.pastCutoff
	f.AttParked += q.attParked
	f.AttShared += q.attShared
}
