package netrun_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/message"
	"repro/internal/netrun"
)

// Tests of a node's request book: a station is handed only its cell's
// oldest request, a backlog is handed over in a loop, and deadlines are
// kept on the node's loop.

// holder answers every request on the spot — a grant of channel 0, or a
// denial at its factory's deny cell — except at the hold cell, whose
// first request it holds until a Release. A Release with nothing held
// does nothing.
type holder struct {
	env        alloc.Env
	hold, deny bool
	held       alloc.RequestID
}

func (h *holder) Start(env alloc.Env)    { h.env = env }
func (h *holder) Handle(message.Message) {}
func (h *holder) InUse() chanset.Set     { return chanset.Set{} }
func (h *holder) Mode() int              { return 0 }
func (h *holder) Release(chanset.Channel) error {
	if id := h.held; id != 0 {
		h.held = 0
		h.env.Granted(id, 0)
	}
	return nil
}
func (h *holder) Request(id alloc.RequestID) {
	switch {
	case h.hold:
		h.hold, h.held = false, id
	case h.deny:
		h.env.Denied(id)
	default:
		h.env.Granted(id, 0)
	}
}

// counting wraps holders and counts the requests each station is handed.
type counting struct {
	hold, deny hexgrid.CellID
	handed     []atomic.Int64 // by cell
}

type counted struct {
	alloc.Allocator
	n *atomic.Int64
}

func (c counted) Request(id alloc.RequestID) { c.n.Add(1); c.Allocator.Request(id) }

func (f *counting) Name() string { return "holder" }
func (f *counting) New(c hexgrid.CellID) alloc.Allocator {
	return counted{&holder{hold: c == f.hold, deny: c == f.deny}, &f.handed[c]}
}

// holderNode is one node hosting every cell of a small grid, each a
// holder, with the given hold and deny cells.
func holderNode(t *testing.T, timeout time.Duration, hold, deny hexgrid.CellID) (*netrun.Node, *counting) {
	t.Helper()
	grid := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 5, Height: 5, ReuseDistance: 2, Wrap: true})
	f := &counting{hold: hold, deny: deny, handed: make([]atomic.Int64, grid.NumCells())}
	n, err := netrun.NewNode(grid, chanset.MustAssign(grid, 25), f, "", netrun.Config{RequestTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n, f
}

func stackDepth() int {
	var pcs [4096]uintptr
	return runtime.Callers(2, pcs[:])
}

// TestBacklogConcludesAtOneStackDepth: a backlog of requests behind one
// the station holds, each granted on the spot once handed over,
// concludes in submission order when the held one is answered — the
// node's book hands them over in a loop, so every completion runs at the
// same stack depth, however far back in the backlog its request was.
func TestBacklogConcludesAtOneStackDepth(t *testing.T) {
	const backlog = 1000
	cell := hexgrid.CellID(12)
	n, f := holderNode(t, 0, cell, -1)
	var done, depths []int // the loop's; read after wg.Wait
	var wg sync.WaitGroup
	wg.Add(backlog + 1)
	for k := 0; k <= backlog; k++ {
		n.Request(cell, func(netrun.Result) {
			done = append(done, k)
			depths = append(depths, stackDepth())
			wg.Done()
		})
	}
	n.Release(cell, 0) // after every booking: the loop runs them in order
	wg.Wait()
	for k := range done {
		if done[k] != k {
			t.Fatalf("completion %d was for request %d: out of submission order", k, done[k])
		}
	}
	for k, depth := range depths[1:] {
		if depth != depths[1] {
			t.Fatalf("backlog request %d concluded %d frames deep, the first %d", k+1, depth, depths[1])
		}
	}
	if got := f.handed[cell].Load(); got != backlog+1 {
		t.Fatalf("the station was handed %d requests, want %d", got, backlog+1)
	}
}

// TestExpiredRequestNeverReachesTheStation: requests queued behind a
// head the station holds past their deadline are denied by the deadline
// and are never handed to the station; the head's late grant is
// released back, and the next request reaches the station.
func TestExpiredRequestNeverReachesTheStation(t *testing.T) {
	cell := hexgrid.CellID(12)
	n, f := holderNode(t, 20*time.Millisecond, cell, -1)
	results := make(chan netrun.Result, 4)
	for i := 0; i < 3; i++ {
		n.Request(cell, func(r netrun.Result) { results <- r })
	}
	for i := 0; i < 3; i++ {
		select {
		case r := <-results:
			if r.Granted {
				t.Fatalf("request %d granted while the station held the first", i)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("no deadline denial")
		}
	}
	if got, handed := n.DeadlineDenials(), f.handed[cell].Load(); got != 3 || handed != 1 {
		t.Fatalf("%d deadline denials, station handed %d requests; want 3 and 1", got, handed)
	}
	n.Release(cell, 0) // the station grants the held request, late
	n.Request(cell, func(r netrun.Result) { results <- r })
	select {
	case r := <-results:
		if !r.Granted {
			t.Fatal("the request after the late grant was denied")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the request after the late grant never concluded")
	}
	if !n.WaitSettled(10 * time.Second) {
		t.Fatal("did not settle")
	}
	if late, handed := n.LateGrants(), f.handed[cell].Load(); late != 1 || handed != 2 {
		t.Fatalf("%d late grants, station handed %d requests; want 1 and 2: the expired ones skipped", late, handed)
	}
}

// TestCallbacksRunOnTheLoop: grant, denial and deadline callbacks at one
// node all run on its loop, so they may share state with no lock (the
// race detector checks the unsynchronised slice below).
func TestCallbacksRunOnTheLoop(t *testing.T) {
	grant, deny, hold := hexgrid.CellID(1), hexgrid.CellID(2), hexgrid.CellID(3)
	n, _ := holderNode(t, 20*time.Millisecond, hold, deny)
	var got []string // appended to by every callback, unsynchronised
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		for _, cell := range []hexgrid.CellID{grant, deny, hold} {
			wg.Add(1)
			n.Request(cell, func(r netrun.Result) {
				got = append(got, fmt.Sprintf("%d:%v", r.Cell, r.Granted))
				wg.Done()
			})
		}
	}
	wg.Wait()
	count := map[string]int{}
	for _, s := range got {
		count[s]++
	}
	if want := map[string]int{"1:true": 20, "2:false": 20, "3:false": 20}; fmt.Sprint(count) != fmt.Sprint(want) {
		t.Fatalf("callbacks %v, want %v", count, want)
	}
	if d := n.DeadlineDenials(); d != 20 {
		t.Fatalf("%d deadline denials, want 20: every request at the holding cell", d)
	}
}
