package driver_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/message"
	"repro/internal/sim"
)

// Tests of the request book: one flat record per request in flight,
// chained per cell in submission order; a station is handed only its
// cell's oldest.

// bookDrivers builds the envTap grid under New and under NewParallel at
// the given shard counts, the serial driver last (tap.envs are its).
func bookDrivers(t *testing.T, shards ...int) (*hexgrid.Grid, *chanset.Assignment, *envTap, []*driver.Sim) {
	t.Helper()
	g, assign, tap := adaptiveTap(t)
	var out []*driver.Sim
	for _, n := range shards {
		d, err := driver.NewParallel(g, assign, tap, driver.ParallelOptions{Latency: 10, Seed: 1, Shards: n, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, d)
	}
	out = append(out, driver.New(g, assign, tap, driver.Options{Latency: 10, Seed: 1}))
	return g, assign, tap, out
}

func driverName(d *driver.Sim) string {
	if d.Engine() != nil {
		return "serial driver"
	}
	return fmt.Sprintf("sharded driver, %d shards", d.NumShards())
}

// occupy takes every primary of cell, then submits one more request: it
// starts a borrow round, so the station stays busy and every later
// request at cell waits in the book.
func occupy(t *testing.T, d *driver.Sim, assign *chanset.Assignment, cell hexgrid.CellID) {
	t.Helper()
	for i := 0; i <= assign.Primary[cell].Len(); i++ {
		d.Request(cell, nil)
	}
	if got := d.Outstanding(); got != 1 {
		t.Fatalf("%d requests in flight after taking the primaries, want the one borrow round", got)
	}
}

// TestRequestBookFootprintBudget: requests waiting at a busy station cost
// the heap their 40-byte records and nothing else — no map entry, no
// node, no slot in the station's queue. Once the book's first page is
// whole, a page of waiting requests may allocate 40 bytes a request,
// plus a slack of 24 per cell in all for the book's page index; counted
// as every byte the pushes allocate, garbage included, so the reading
// does not depend on when the collector ran.
func TestRequestBookFootprintBudget(t *testing.T) {
	skipUnderRace(t)
	// The never-used record 0 and the borrow round's record, then first
	// the rest of the first page (which doubles up to 1 024 records),
	// then 15 whole pages: their index grows to 16 entries, 720 bytes.
	const first, n = 1<<10 - 2, 15 << 10
	g, assign, _, drivers := bookDrivers(t, 7)
	cell := g.InteriorCell()
	for _, d := range drivers {
		occupy(t, d, assign, cell)
		for i := 0; i < first; i++ {
			d.Request(cell, nil)
		}
		allocated := allocatedBy(func() {
			for i := 0; i < n; i++ {
				d.Request(cell, nil)
			}
		})
		if got := d.Outstanding(); got != first+n+1 {
			t.Fatalf("%s: %d requests in flight, want %d", driverName(d), got, first+n+1)
		}
		if budget := uint64(40*n + 24*g.NumCells()); allocated > budget {
			t.Errorf("%s: %d waiting requests allocated %d bytes (%.2f each), budget %d: 40 per request plus 24 per cell",
				driverName(d), n, allocated, float64(allocated)/n, budget)
		}
		t.Logf("%s: %d bytes allocated by %d waiting requests, %.3f each", driverName(d), allocated, n, float64(allocated)/n)
	}
}

// allocatedBy returns how many bytes fn allocates. Like
// testing.AllocsPerRun it runs fn on one processor, so that other
// goroutines — a previous test's, finishing — do not allocate meanwhile,
// and it keeps the collector off.
func allocatedBy(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// contHandler is a CallHandler that keeps the channel of the last
// request it saw granted.
type contHandler struct{ ch chanset.Channel }

func (h *contHandler) HandleEvent(sim.Event, sim.Attachment)           {}
func (h *contHandler) Complete(r driver.Result, _ driver.Continuation) { h.ch = r.Ch }

// TestRequestBookAllocatesNothing: once warm, a request → grant → release
// round allocates nothing on either constructor, through RequestCont and
// through Request with a closure the caller reuses: the record is a free
// one, and the closure is parked in a free slot.
func TestRequestBookAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	g, _, _, drivers := bookDrivers(t, 1, 7)
	cell := g.InteriorCell()
	for _, d := range drivers {
		h := &contHandler{}
		d.SetCallHandler(h)
		cb := func(r driver.Result) { h.ch = r.Ch }
		for _, via := range []struct {
			name    string
			request func()
		}{
			{"RequestCont", func() { d.RequestCont(cell, driver.Continuation{Op: 1, Hold: 5}) }},
			{"Request", func() { d.Request(cell, cb) }},
		} {
			round := func() {
				h.ch = chanset.NoChannel
				via.request()
				if h.ch == chanset.NoChannel {
					t.Fatalf("%s, %s: the request was not granted on the spot", driverName(d), via.name)
				}
				d.Release(cell, h.ch)
				if !d.Drain(1 << 10) {
					t.Fatalf("%s, %s: did not drain", driverName(d), via.name)
				}
			}
			round()
			if allocs := testing.AllocsPerRun(500, round); allocs != 0 {
				t.Errorf("%s, %s: %.1f allocations per request/grant/release round, want 0", driverName(d), via.name, allocs)
			}
		}
	}
}

// TestRequestsCompleteInSubmissionOrder: requests queued at one station
// conclude in submission order, each with its own id and submission
// time, and protocol work on each begins the tick its predecessor ends.
func TestRequestsCompleteInSubmissionOrder(t *testing.T) {
	g, assign, _, drivers := bookDrivers(t, 7)
	cell := g.InteriorCell()
	for _, d := range drivers {
		occupy(t, d, assign, cell)
		var ids []alloc.RequestID
		var done []driver.Result
		for i := 0; i < 20; i++ {
			ids = append(ids, d.Request(cell, func(r driver.Result) { done = append(done, r) }))
		}
		if !d.Drain(1 << 20) {
			t.Fatalf("%s: did not drain", driverName(d))
		}
		if len(done) != len(ids) {
			t.Fatalf("%s: %d of %d requests concluded", driverName(d), len(done), len(ids))
		}
		for k, r := range done {
			if r.ID != ids[k] || r.Cell != cell || r.Submitted != 0 {
				t.Fatalf("%s: conclusion %d is %+v, want request %d at cell %d submitted at 0", driverName(d), k, r, ids[k], cell)
			}
			if k > 0 && r.Began != done[k-1].Done {
				t.Fatalf("%s: request %d began at %d, want its predecessor's end %d", driverName(d), k, r.Began, done[k-1].Done)
			}
		}
	}
}

// stale is a deliberately broken station: it grants each request on the
// spot, and then reports on the one before it instead.
type stale struct {
	env    alloc.Env
	report string
	last   alloc.RequestID
}

type staleFactory struct{ report string }

func (f staleFactory) Name() string                       { return "stale" }
func (f staleFactory) New(hexgrid.CellID) alloc.Allocator { return &stale{report: f.report} }

func (l *stale) Start(env alloc.Env)           { l.env = env }
func (l *stale) Release(chanset.Channel) error { return nil }
func (l *stale) Handle(message.Message)        {}
func (l *stale) InUse() chanset.Set            { return chanset.Set{} }
func (l *stale) Mode() int                     { return 0 }
func (l *stale) Request(id alloc.RequestID) {
	if l.last == 0 {
		l.last = id
		l.env.Granted(id, 0)
		return
	}
	switch l.report {
	case "grant":
		l.env.Granted(l.last, 0)
	case "denial":
		l.env.Denied(l.last)
	case "start":
		l.env.Began(l.last)
	}
}

// TestOutOfOrderStationPanics: a station that reports on a request other
// than the oldest in flight at its cell, the only one it was handed,
// breaks the one-at-a-time contract the book relies on, and both
// constructors say so, naming the cell and both ids, instead of
// mismatching results. A report at a cell with nothing in flight says
// that.
func TestOutOfOrderStationPanics(t *testing.T) {
	g, assign, _ := adaptiveTap(t)
	cell := g.InteriorCell()
	for _, report := range []string{"grant", "denial", "start"} {
		f := staleFactory{report}
		sharded, err := driver.NewParallel(g, assign, f, driver.ParallelOptions{Latency: 10, Seed: 1, Shards: 7, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []*driver.Sim{driver.New(g, assign, f, driver.Options{Latency: 10, Seed: 1}), sharded} {
			first := d.Request(cell, nil)
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				d.Request(cell, nil)
				return ""
			}()
			second := first + 1 // ids: sequential under New, a cell's spaced NumCells apart under NewParallel
			if d.Engine() == nil {
				second = first + alloc.RequestID(g.NumCells())
			}
			want := fmt.Sprintf("%s for request %d at cell %d, whose oldest request in flight is %d", report, first, cell, second)
			if !strings.Contains(msg, want) {
				t.Errorf("%s: a station reporting a %s out of order panicked with %q, want it to mention %q", driverName(d), report, msg, want)
			}
		}
	}
	d := driver.New(g, assign, staleFactory{"grant"}, driver.Options{Latency: 10, Seed: 1})
	first := d.Request(cell, nil)
	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		d.Allocator(cell).Request(first)
		return ""
	}()
	if want := fmt.Sprintf("grant for request %d at cell %d, which has no request in flight", first, cell); !strings.Contains(msg, want) {
		t.Errorf("a grant at a cell with nothing in flight panicked with %q, want it to mention %q", msg, want)
	}
}

// eager holds its cell's first request until a release, and grants every
// later one the moment it is handed over.
type eager struct {
	env  alloc.Env
	held alloc.RequestID
	seen bool
}

type eagerFactory struct{}

func (eagerFactory) Name() string                       { return "eager" }
func (eagerFactory) New(hexgrid.CellID) alloc.Allocator { return &eager{} }

func (x *eager) Start(env alloc.Env)    { x.env = env }
func (x *eager) Handle(message.Message) {}
func (x *eager) InUse() chanset.Set     { return chanset.Set{} }
func (x *eager) Mode() int              { return 0 }
func (x *eager) Release(chanset.Channel) error {
	x.env.Granted(x.held, 0)
	return nil
}
func (x *eager) Request(id alloc.RequestID) {
	if !x.seen {
		x.held, x.seen = id, true
		return
	}
	x.env.Granted(id, 0)
}

// TestNextRequestHandedAfterCompletion: the driver hands a cell's next
// request to its station only after the concluded one's completion has
// run, so a station that answers on the spot still completes in
// submission order.
func TestNextRequestHandedAfterCompletion(t *testing.T) {
	g, assign, _ := adaptiveTap(t)
	cell := g.InteriorCell()
	sharded, err := driver.NewParallel(g, assign, eagerFactory{}, driver.ParallelOptions{Latency: 10, Seed: 1, Shards: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*driver.Sim{driver.New(g, assign, eagerFactory{}, driver.Options{Latency: 10, Seed: 1}), sharded} {
		var ids, done []alloc.RequestID
		for i := 0; i < 3; i++ {
			ids = append(ids, d.Request(cell, func(r driver.Result) { done = append(done, r.ID) }))
		}
		d.Release(cell, 0)
		if fmt.Sprint(done) != fmt.Sprint(ids) {
			t.Errorf("%s: completions ran for %v, want submission order %v", driverName(d), done, ids)
		}
	}
}

// stackDepth is the number of frames above its caller.
func stackDepth() int {
	var pcs [4096]uintptr
	return runtime.Callers(2, pcs[:])
}

// TestBacklogConcludesAtOneStackDepth: a backlog of requests behind one
// the station holds, each granted on the spot once handed over,
// concludes in submission order when the held one is answered — the
// book hands them over in a loop, so every completion runs at the same
// stack depth, however far back in the backlog its request was.
func TestBacklogConcludesAtOneStackDepth(t *testing.T) {
	const backlog = 1000
	g, assign, _ := adaptiveTap(t)
	cell := g.InteriorCell()
	sharded, err := driver.NewParallel(g, assign, eagerFactory{}, driver.ParallelOptions{Latency: 10, Seed: 1, Shards: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*driver.Sim{driver.New(g, assign, eagerFactory{}, driver.Options{Latency: 10, Seed: 1}), sharded} {
		var ids, done []alloc.RequestID
		var depths []int
		for i := 0; i <= backlog; i++ {
			ids = append(ids, d.Request(cell, func(r driver.Result) {
				done = append(done, r.ID)
				depths = append(depths, stackDepth())
			}))
		}
		if len(done) != 0 {
			t.Fatalf("%s: %d requests concluded while the first was held", driverName(d), len(done))
		}
		d.Release(cell, 0) // the station grants the held request
		if fmt.Sprint(done) != fmt.Sprint(ids) {
			t.Fatalf("%s: %d of %d requests concluded, or out of submission order", driverName(d), len(done), len(ids))
		}
		for k, depth := range depths[1:] {
			if depth != depths[1] {
				t.Fatalf("%s: backlog request %d concluded %d frames deep, the first %d", driverName(d), k+1, depth, depths[1])
			}
		}
	}
}
