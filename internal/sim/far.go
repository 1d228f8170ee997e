package sim

import (
	"math"
	"slices"
)

// The queue's far side. Most of what a run queues is due long after the
// record being executed — a call's hang-up a mean hold away, the next
// arrival at a cell — while the records executed next are mostly
// messages due one latency out. A heap pays for the far records on every
// pop: the last record sifts down through all of them, one dependent
// cache miss per level. So a queue past smallQueue records keeps only
// records due within its near horizon of its clock (the due time of the
// record it popped last) in the heap and appends the others, unsorted,
// to a far table.
// When the heap's top no longer precedes the far table's earliest record,
// one sweep moves every far record due within batchSpan ticks of that
// earliest one to the front of the table, where a counting sort by due
// tick puts them in order; popping them is then a sequential read.
//
// The far table is a run of pages: [head, bend) is the batch, sorted by
// (At, key), and [bend, n) the log, in append order, whose earliest due
// time is min. Its first page is the queue's own, short and doubling
// while it is the only one, as the heap's first page is; every later page
// comes from the kernel's pool. Pages the batch has been read past go
// back as it is read — the pool's to the pool, the own page to the table
// as a spare it takes again first — and every page goes back when the
// table empties. Nothing but routing and the sweep depends on the
// constants: the order is (At, key) whichever part holds a record.
const (
	// nearSpan is the near heap's least horizon, and the whole of it on
	// NewEngine's kernel, which knows no latency. Messages, handoffs and release-backs are
	// due one latency (10 ticks in the repository's workloads) after the
	// record that sends them, and a shard's clock may trail the window
	// that sent a cross-shard message by up to one lookahead more; 64
	// ticks keeps every such record in the heap with room to spare, while
	// a far record — due a hold time of thousands of ticks out — lands
	// inside it a few times in a hundred. A kernel of lookahead T widens
	// it to three lookaheads (nearOf); NewEngine's files the messages of
	// a latency of 64 ticks or more in the log.
	nearSpan = 64
	// batchSpan is the width, in ticks, of the due times one refill
	// moves. At 256 a batch holds some 4 800 records on
	// light-mobile-serial, whose run refills 318 times: fewer, wider
	// batches sort more records than the heap ever had to order at once;
	// narrower ones sweep the log more often.
	batchSpan = 256
	// smallQueue is the number of records a queue keeps in its heap
	// whatever they are due: a queue that never holds more is one heap
	// array, as before the split, and pays for no second table.
	smallQueue = 128
)

// nearOf is the near horizon of a kernel of the given lookahead:
// a message is due at most two lookaheads after its shard's clock, and
// the third is room to spare, as nearSpan leaves for the repository's 10.
func nearOf(lookahead Time) Time {
	if lookahead > math.MaxInt64/3 {
		return math.MaxInt64
	}
	return max(nearSpan, 3*lookahead)
}

// farLog is the queue's far table (see above). Its pages past the first
// come from the queue's pool, which the methods are handed.
type farLog struct {
	tab [][]Event
	// own is the table's own page, nil until its first record; inTab
	// says whether the table holds it or keeps it spare. While it is short
	// it is the table's only page or the table is empty.
	own        []Event
	inTab      bool
	head, bend int
	n          int
	min        Time
	// last is the latest due time the refill that filled the batch
	// could move. While the batch is not spent a record due at or before
	// last must not enter the log — the batch would no longer be the far
	// table's earliest part — and the queue sends it to the heap instead;
	// after that the bound is stale and harmless.
	last Time
	// refills and moved count the refills and the records they moved
	// into batches.
	refills, moved uint64
}

// at returns slot i of the table.
func (f *farLog) at(i int) *Event { return &f.tab[i>>pageShift][i&pageMask] }

// batched reports whether the batch holds a record.
func (f *farLog) batched() bool { return f.head < f.bend }

// records is the number of records the table holds.
func (f *farLog) records() int { return f.n - f.head }

// add appends ev to the log.
func (f *farLog) add(pool *pagePool, ev Event) {
	i := f.n
	if i>>pageShift == len(f.tab) {
		f.tab = append(f.tab, f.page(pool))
	}
	pg := f.tab[i>>pageShift]
	if i&pageMask == len(pg) { // the own page, short and full
		f.growOwn(2 * len(pg))
		pg = f.own
	}
	pg[i&pageMask] = ev
	if f.n++; f.n == f.bend+1 || ev.At < f.min {
		f.min = ev.At
	}
}

// pop removes and returns the batch's head, handing back the page it
// leaves behind, and every page once the table is empty.
func (f *farLog) pop(pool *pagePool) Event {
	i := f.head
	ev := f.tab[i>>pageShift][i&pageMask]
	f.head++
	switch {
	case f.head == f.n:
		f.release(pool)
	case f.head&pageMask == 0:
		f.put(pool, f.tab[i>>pageShift])
		f.tab[i>>pageShift] = nil
	}
	return ev
}

// release hands every page back, last first, so that a table taking
// pages again from the pool's LIFO free list gets them in their old
// order, and empties the table.
func (f *farLog) release(pool *pagePool) {
	for p := len(f.tab) - 1; p >= 0; p-- {
		if f.tab[p] != nil {
			f.put(pool, f.tab[p])
			f.tab[p] = nil
		}
	}
	f.tab = f.tab[:0]
	f.head, f.bend, f.n = 0, 0, 0
}

// page returns the page the table appends next: its own while that is
// spare, and one of the pool's once the table holds it.
func (f *farLog) page(pool *pagePool) []Event {
	if f.inTab {
		return pool.get()
	}
	if f.own == nil {
		f.own = make([]Event, 4)
	}
	f.inTab = true
	return f.own
}

// put takes back a page the table is done with: the own page stays, a
// spare, and any other goes back to the pool.
func (f *farLog) put(pool *pagePool, pg []Event) {
	if &pg[0] != &f.own[0] {
		pool.put(pg)
		return
	}
	f.inTab = false
	if poisonPages {
		poison(pg)
	}
}

// growOwn makes the own page, still short, hold size slots, a whole page
// at most — the one copy the table ever makes of its records.
func (f *farLog) growOwn(size int) {
	pg := make([]Event, min(size, pageSlots))
	copy(pg, f.own)
	f.own = pg
	if f.inTab {
		f.tab[0] = pg
	}
}

// capacity is the number of records the table has room for from head
// on: its own page and a page of the pool's for every further entry its
// page table has room for.
func (f *farLog) capacity() int { return len(f.own) + (max(cap(f.tab), 1)-1)<<pageShift - f.head }

// reserve readies the table for n records: the own page grows to hold
// them, a whole page at most, and the pool is stocked with the pages
// past it, which any table of the kernel may then take — the warm
// start's burst of messages, due in the first window, fills the heaps
// from the same stock the far logs draw on.
func (f *farLog) reserve(pool *pagePool, n int) {
	if need := f.head + n; need > len(f.own) && len(f.own) < pageSlots {
		f.growOwn(need)
	}
	pages := (f.head + n + pageMask) >> pageShift
	if more := pages - max(cap(f.tab), 1); more > 0 {
		pool.stock(more)
		f.tab = slices.Grow(f.tab, pages-len(f.tab))
	}
}

// pages and bytes are the pages the table holds, its own included
// whether it is in use or spare, and their memory.
func (f *farLog) pages() (n int, bytes uint64) {
	for _, pg := range f.tab {
		if pg != nil {
			n++
			bytes += uint64(len(pg)) * EventSize
		}
	}
	if f.own != nil && !f.inTab {
		n++
		bytes += uint64(len(f.own)) * EventSize
	}
	return n, bytes
}

// refill makes the batch of every log record due within batchSpan ticks
// of the log's earliest, sorted by (At, key). The batch must be spent and
// the log not empty.
func (f *farLog) refill(pool *pagePool) {
	f.rebase(pool)
	lo := f.min
	last := lo + batchSpan - 1
	if last < lo {
		last = math.MaxInt64
	}
	// Partition [head, n) into the batch and what stays in the log: a
	// record due by last swaps with the first record that stays.
	var count [batchSpan]int32
	b, rest := f.head, Time(math.MaxInt64)
	for p := f.head >> pageShift; p<<pageShift < f.n; p++ {
		pg := f.tab[p]
		for j := max(f.head-p<<pageShift, 0); j < min(pageSlots, f.n-p<<pageShift); j++ {
			at := pg[j].At
			if at > last {
				rest = min(rest, at)
				continue
			}
			count[at-lo]++
			if i := p<<pageShift + j; i != b {
				x := f.at(b)
				*x, pg[j] = pg[j], *x
			}
			b++
		}
	}
	f.bend, f.min, f.last = b, rest, last
	f.refills++
	f.moved += uint64(b - f.head)
	f.sortBatch(lo, &count)
}

// rebase drops the page-table entries of the pages the batch has been
// read past, moves the log's last records into the slots the batch was
// read out of, so that the log starts at slot 0, and hands back the
// pages past the one it then ends in: a table between refills holds at
// most one page that is not full.
func (f *farLog) rebase(pool *pagePool) {
	if p := f.head >> pageShift; p > 0 {
		k := copy(f.tab, f.tab[p:])
		clear(f.tab[k:])
		f.tab = f.tab[:k]
		d := p << pageShift
		f.head, f.n = f.head-d, f.n-d
	}
	// The source and the destination never overlap: the k records moved
	// start at or after slot head, and the slots they fill end before it.
	n := f.n - f.head
	k := min(f.head, n)
	for i := range k {
		*f.at(i) = *f.at(f.n - k + i)
	}
	f.head, f.bend, f.n = 0, 0, n
	keep := (f.n + pageMask) >> pageShift
	for p := len(f.tab) - 1; p >= keep; p-- {
		f.put(pool, f.tab[p])
		f.tab[p] = nil
	}
	f.tab = f.tab[:keep]
}

// sortBatch sorts the batch [head, bend), whose due times lie in
// [lo, lo+batchSpan) and count per tick, by (At, key): records move to
// their tick's range in place, each at most once (an American flag
// sort), and then each tick's range is sorted by key.
func (f *farLog) sortBatch(lo Time, count *[batchSpan]int32) {
	var next, end [batchSpan]int32
	s := int32(f.head)
	for t, c := range count {
		next[t] = s
		s += c
		end[t] = s
	}
	for t := range next {
		for next[t] < end[t] {
			i := int(next[t])
			x := *f.at(i)
			for d := int(x.At - lo); d != t; d = int(x.At - lo) {
				y := f.at(int(next[d]))
				next[d]++
				x, *y = *y, x
			}
			*f.at(i) = x
			next[t]++
		}
	}
	start := f.head
	for _, e := range end {
		if int(e)-start > 1 {
			f.sortKeys(start, int(e))
		}
		start = int(e)
	}
}

// shellGaps are the gaps of sortKeys (Ciura's, ending in an insertion
// sort): a tick holds a few tens of records in a run's steady state, and
// a burst of thousands due at one tick must not cost their square.
var shellGaps = [...]int{701, 301, 132, 57, 23, 10, 4, 1}

// sortKeys sorts the records in [lo, hi), all due at one tick, by key.
func (f *farLog) sortKeys(lo, hi int) {
	for _, gap := range shellGaps {
		for i := lo + gap; i < hi; i++ {
			x := *f.at(i)
			j := i
			for ; j-gap >= lo && f.at(j-gap).key > x.key; j -= gap {
				*f.at(j) = *f.at(j - gap)
			}
			*f.at(j) = x
		}
	}
}
