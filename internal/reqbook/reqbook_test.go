package reqbook

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/sim"
)

// host is a minimal host of one cell: it books requests, hands them to
// its station through the book, and records what concluded.
type host struct {
	b    Book[alloc.RequestID]
	c    Chain
	st   *station
	done []alloc.RequestID
	fn   func(alloc.RequestID) // every request's completion: one closure
}

func newHost() *host {
	h := &host{}
	h.st = &station{}
	h.fn = func(id alloc.RequestID) { h.done = append(h.done, id) }
	return h
}

func (h *host) submit(id alloc.RequestID) {
	h.b.Push(&h.c, Rec{ID: id}, h.fn)
	h.b.HandOver(&h.c, h.st)
}

// report is the station's grant (or start, or denial) on id, concluded
// as a host does: Conclude, the completion, Finish.
func (h *host) report(what string, id alloc.RequestID) {
	if what == "start" {
		h.b.Check(&h.c, 3, what, id)
		return
	}
	_, fn := h.b.Conclude(&h.c, 3, what, id)
	if fn != nil {
		fn(id)
	}
	h.b.Finish(&h.c, h.st)
}

// station records what it is handed and holds it until the test reports
// on it.
type station struct {
	alloc.Allocator
	handed []alloc.RequestID
}

func (s *station) Request(id alloc.RequestID) { s.handed = append(s.handed, id) }

// TestHandOverRunsImmediatelyWhenIdle: a request at an idle cell reaches
// its station as soon as it is booked, and stays the cell's oldest until
// the station reports on it.
func TestHandOverRunsImmediatelyWhenIdle(t *testing.T) {
	h := newHost()
	h.submit(1)
	if fmt.Sprint(h.st.handed) != "[1]" {
		t.Fatalf("handed %v, want [1]", h.st.handed)
	}
	h.b.Check(&h.c, 3, "start", 1)
	h.report("grant", 1)
	if fmt.Sprint(h.done) != "[1]" || h.c != (Chain{}) {
		t.Fatalf("after the grant: done %v, chain %+v; want [1] and an empty chain", h.done, h.c)
	}
}

// TestHeadWaitsForItsPredecessor: requests booked while the station holds
// one wait in the book, and each reaches the station only once the one
// before it has concluded.
func TestHeadWaitsForItsPredecessor(t *testing.T) {
	h := newHost()
	for id := alloc.RequestID(1); id <= 3; id++ {
		h.submit(id)
	}
	if fmt.Sprint(h.st.handed) != "[1]" {
		t.Fatalf("handed %v while the first was held, want [1]", h.st.handed)
	}
	h.report("denial", 1)
	if fmt.Sprint(h.st.handed) != "[1 2]" {
		t.Fatalf("after the first concluded: handed %v, want [1 2]", h.st.handed)
	}
	h.report("grant", 2)
	h.report("grant", 3)
	if fmt.Sprint(h.done) != "[1 2 3]" || h.c != (Chain{}) {
		t.Fatalf("done %v, chain %+v; want [1 2 3] and an empty chain", h.done, h.c)
	}
}

// TestBookQueueMemoryIsBounded: a station's backlog costs records, not a
// queue. One request at a time reuses one record with no allocation, and
// a standing backlog that never empties, as under overload, stays FIFO
// and recycles its records: the book never grows past its high-water
// mark of records in flight, so its pages stay as they are.
func TestBookQueueMemoryIsBounded(t *testing.T) {
	h := newHost()
	next := alloc.RequestID(0)
	submit := func() { next++; h.submit(next) }
	oldest := func() alloc.RequestID { return h.b.At(h.c.head).ID }
	submit()
	if allocs := testing.AllocsPerRun(1000, func() {
		h.report("grant", oldest())
		submit()
		h.done, h.st.handed = h.done[:0], h.st.handed[:0]
	}); allocs != 0 {
		t.Errorf("idle station: %.1f allocations per request, want 0", allocs)
	}
	const backlog = 5
	for i := 0; i < backlog; i++ {
		submit()
	}
	used := h.b.used
	rounds := func() {
		for i := 0; i < 1000; i++ {
			h.report("grant", oldest())
			submit()
		}
		h.done, h.st.handed = h.done[:0], h.st.handed[:0]
	}
	for i := 0; i < 100; i++ {
		rounds()
	}
	if allocs := testing.AllocsPerRun(10, rounds); allocs != 0 {
		t.Errorf("standing backlog: %.1f allocations per 1 000 requests, want 0", allocs)
	}
	if h.b.used != used {
		t.Fatalf("a standing backlog of %d grew the book from %d records to %d", backlog, used-1, h.b.used-1)
	}
	var want []alloc.RequestID
	for first := oldest(); first <= next; first++ {
		want = append(want, first)
		h.report("grant", first)
	}
	if fmt.Sprint(h.done) != fmt.Sprint(want) || len(want) != backlog+1 {
		t.Fatalf("drained %v, want %v", h.done, want)
	}
	if got := h.st.handed[len(h.st.handed)-1]; got != next {
		t.Fatalf("the station was last handed %d, want %d", got, next)
	}
}

// TestBookMatchesPerCellQueues drives one book over a few cells with a
// random mix of bookings and conclusions, against a FIFO per cell, over
// more than two pages of records in flight. Each cell's oldest is always
// its earliest booking, a conclusion returns the record as booked, and
// concluded records are reused: the book never hands out more records
// than were ever in flight at once.
func TestBookMatchesPerCellQueues(t *testing.T) {
	const cells = 5
	var b Book[struct{}]
	chains := make([]Chain, cells)
	model := make([][]Rec, cells)
	rng := sim.NewRand(7)
	live, peak := 0, 0
	next := alloc.RequestID(0)
	for step := 0; step < 40_000; step++ {
		c := rng.Intn(cells)
		// Grow for half the drive (to about ten pages), then shrink.
		grow := step < 20_000
		if len(model[c]) == 0 || (grow && rng.Intn(4) != 0) || (!grow && rng.Intn(4) == 0) {
			if !grow && live == 0 {
				break
			}
			next++
			r := Rec{ID: next, Submitted: sim.Time(step), Hold: sim.Time(-step), Op: uint8(step)}
			b.Push(&chains[c], r, nil)
			model[c] = append(model[c], r)
			live++
			peak = max(peak, live)
			continue
		}
		want := model[c][0]
		if chains[c].head == 0 || b.At(chains[c].head).ID != want.ID {
			t.Fatalf("step %d: cell %d's oldest is %+v, want request %d", step, c, b.At(chains[c].head), want.ID)
		}
		b.At(chains[c].head).state = starting // as if inside HandOver, which goes on by itself
		got, _ := b.Conclude(&chains[c], 0, "grant", want.ID)
		b.Finish(&chains[c], nil)
		got.next, got.state = 0, 0
		if got != want {
			t.Fatalf("step %d: concluded %+v, want %+v", step, got, want)
		}
		model[c] = model[c][1:]
		live--
	}
	if peak <= 2*1024 {
		t.Fatalf("the drive peaked at %d records, want more than two 1 024-record pages", peak)
	}
	if int(b.used)-1 != peak {
		t.Fatalf("the book handed out %d records for a peak of %d in flight", b.used-1, peak)
	}
	for c := range chains {
		if len(model[c]) == 0 && chains[c] != (Chain{}) {
			t.Fatalf("cell %d has no request in flight, but its chain is %+v", c, chains[c])
		}
	}
}

// TestCheckPanicsOnAStationOutOfTurn: a station may report only on the
// one request it holds, its cell's oldest. A start, grant or denial for
// another request, at a cell with nothing in flight, or for a request
// still waiting in the book panics naming the cell and the ids.
func TestCheckPanicsOnAStationOutOfTurn(t *testing.T) {
	for _, what := range []string{"start", "grant", "denial"} {
		for _, tc := range []struct {
			name  string
			drive func(h *host)
			want  string
		}{
			{"stale", func(h *host) {
				h.submit(1)
				h.report("grant", 1)
				h.submit(2)
				h.report(what, 1)
			}, what + " for request 1 at cell 3, whose oldest request in flight is 2"},
			{"idle", func(h *host) {
				h.submit(1)
				h.report("grant", 1)
				h.report(what, 1)
			}, what + " for request 1 at cell 3, which has no request in flight"},
			{"not handed", func(h *host) {
				h.b.Push(&h.c, Rec{ID: 1}, nil) // booked, HandOver not called yet
				h.report(what, 1)
			}, what + " for request 1 at cell 3, which its station does not hold"},
		} {
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				tc.drive(newHost())
				return ""
			}()
			if !strings.Contains(msg, tc.want) {
				t.Errorf("%s %s: panicked with %q, want it to mention %q", tc.name, what, msg, tc.want)
			}
		}
	}
}

// TestAnsweredRequestNeverReachesTheStation: a request its host answers
// while it waits is dropped at the head unseen, and one answered while
// the station holds it concludes without its completion.
func TestAnsweredRequestNeverReachesTheStation(t *testing.T) {
	h := newHost()
	var recs []int32
	for id := alloc.RequestID(1); id <= 3; id++ {
		recs = append(recs, h.b.Push(&h.c, Rec{ID: id}, h.fn))
		h.b.HandOver(&h.c, h.st)
	}
	for _, i := range recs[:2] { // the held head and the one behind it
		if fn := h.b.Answer(i); fn == nil {
			t.Fatal("Answer returned no completion for a request booked with one")
		}
	}
	h.report("grant", 1)
	if fmt.Sprint(h.st.handed) != "[1 3]" || len(h.done) != 0 {
		t.Fatalf("handed %v, completions %v; want [1 3] and none", h.st.handed, h.done)
	}
	h.report("grant", 3)
	if fmt.Sprint(h.done) != "[3]" || h.c != (Chain{}) {
		t.Fatalf("completions %v, chain %+v; want [3] and an empty chain", h.done, h.c)
	}
}
