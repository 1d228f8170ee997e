package main

import (
	"fmt"
	"time"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/message"
	"repro/internal/registry"
	"repro/internal/sim"
)

// stubNet hosts one allocator per cell of a small grid behind a stub
// alloc.Env owned by the benchmark: Send only queues, and deliver hands
// the queue back in global FIFO order, one same-kind batch at a time,
// timing each batch. That charges every nanosecond to one message kind
// with one clock read per batch instead of one per message, and keeps
// the kernel, the driver and the transport out of the protocol's cost.
type stubNet struct {
	grid   *hexgrid.Grid
	assign *chanset.Assignment
	allocs []alloc.Allocator
	envs   []stubEnv
	queue  []message.Message
	now    sim.Time
	nextID alloc.RequestID

	// kindNs/kindN accumulate delivery time and message count per kind.
	kindNs [message.NumKinds]int64
	kindN  [message.NumKinds]uint64
}

// stubEnv is one cell's view of the stubNet. It remembers the last
// grant so the drive can release it.
type stubEnv struct {
	net     *stubNet
	cell    hexgrid.CellID
	rand    *sim.Rand
	granted chanset.Channel
	grants  int
	denies  int
}

func (e *stubEnv) ID() hexgrid.CellID          { return e.cell }
func (e *stubEnv) Neighbors() []hexgrid.CellID { return e.net.grid.Interference(e.cell) }
func (e *stubEnv) Now() sim.Time               { return e.net.now }
func (e *stubEnv) Latency() sim.Time           { return desLatency }
func (e *stubEnv) Send(m message.Message)      { e.net.queue = append(e.net.queue, m) }
func (e *stubEnv) Began(alloc.RequestID)       {}
func (e *stubEnv) Granted(_ alloc.RequestID, ch chanset.Channel) {
	e.granted = ch
	e.grants++
}
func (e *stubEnv) Denied(alloc.RequestID) { e.denies++ }
func (e *stubEnv) Moved(_, _ chanset.Channel) {
	panic("benchmark: stub env does not track repacking; the default adaptive parameters do none")
}
func (e *stubEnv) After(sim.Time, func()) {
	panic("benchmark: stub env does not schedule timers; the adaptive core uses none")
}
func (e *stubEnv) Rand() *sim.Rand { return e.rand }

// newStubNet builds the BenchmarkBorrowGrant grid — 7x7 wrapped, reuse
// 2, 70 channels — with every cell's adaptive allocator started.
func newStubNet() (*stubNet, error) {
	grid, assign, err := gridAndPlan(7, 7, desChannels, nil)
	if err != nil {
		return nil, err
	}
	factory, err := registry.Build("adaptive", grid, assign, registry.Config{Latency: desLatency})
	if err != nil {
		return nil, err
	}
	n := &stubNet{grid: grid, assign: assign}
	n.allocs = make([]alloc.Allocator, grid.NumCells())
	n.envs = make([]stubEnv, grid.NumCells())
	for c := range n.allocs {
		n.envs[c] = stubEnv{net: n, cell: hexgrid.CellID(c), rand: sim.Substream(1, uint64(c)), granted: chanset.NoChannel}
		n.allocs[c] = factory.New(hexgrid.CellID(c))
		n.allocs[c].Start(&n.envs[c])
	}
	return n, nil
}

// deliver drains the queue. Each maximal same-kind prefix is one timed
// batch; virtual time advances one latency per batch, as if the batch
// had crossed the network together.
func (n *stubNet) deliver() {
	var batch []message.Message
	for len(n.queue) > 0 {
		k := n.queue[0].Kind
		end := 1
		for end < len(n.queue) && n.queue[end].Kind == k {
			end++
		}
		// Handlers append to n.queue while the batch is delivered, so the
		// batch is copied out first.
		batch = append(batch[:0], n.queue[:end]...)
		n.queue = n.queue[:copy(n.queue, n.queue[end:])]
		n.now += desLatency
		t0 := time.Now()
		for _, m := range batch {
			n.allocs[m.To].Handle(m)
		}
		n.kindNs[k] += time.Since(t0).Nanoseconds()
		n.kindN[k] += uint64(len(batch))
	}
}

// request submits one request at cell and runs the protocol to
// quiescence; it reports the channel granted (NoChannel when denied).
func (n *stubNet) request(cell hexgrid.CellID) chanset.Channel {
	e := &n.envs[cell]
	e.granted = chanset.NoChannel
	n.nextID++
	n.now += desLatency
	n.allocs[cell].Request(n.nextID)
	n.deliver()
	return e.granted
}

func (n *stubNet) release(cell hexgrid.CellID, ch chanset.Channel) error {
	if err := n.allocs[cell].Release(ch); err != nil {
		return err
	}
	n.deliver()
	return nil
}

// coreCosts is what the core micro-drive measures.
type coreCosts struct {
	handleNs          [message.NumKinds]float64
	localGrantNs      float64
	borrowRoundNs     float64
	borrowRoundAllocs float64
}

// driveCore measures the protocol core alone. Four phases on one net:
// local grants on an idle cell; borrow rounds on a cell whose primaries
// are exhausted (REQUEST, RESPONSE, RELEASE); a neighbour's local grants
// announced to that borrowing cell (ACQUISITION, RELEASE); and fill/
// empty cycles on another cell, which cross the mode hysteresis both
// ways and so produce CHANGE_MODE and its status responses.
func driveCore(rounds int) (coreCosts, error) {
	var out coreCosts
	n, err := newStubNet()
	if err != nil {
		return out, err
	}
	cell := n.grid.InteriorCell()
	prim := n.assign.Primary[cell].Len()

	// Local grant: request + release with free primaries, no messages.
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		ch := n.request(cell)
		if !ch.Valid() {
			return out, fmt.Errorf("core drive: local request %d denied", i)
		}
		if err := n.release(cell, ch); err != nil {
			return out, err
		}
	}
	out.localGrantNs = float64(time.Since(t0).Nanoseconds()) / float64(rounds)
	if sent := n.kindN[message.Request]; sent != 0 {
		return out, fmt.Errorf("core drive: local grants sent %d requests, want 0", sent)
	}

	// Borrow round, the BenchmarkBorrowGrant shape.
	for i := 0; i < prim; i++ {
		if ch := n.request(cell); !ch.Valid() {
			return out, fmt.Errorf("core drive: exhausting primary %d denied", i)
		}
	}
	allocs0 := readMetric("/gc/heap/allocs:objects")
	t0 = time.Now()
	for i := 0; i < rounds; i++ {
		ch := n.request(cell)
		if !ch.Valid() {
			return out, fmt.Errorf("core drive: borrow round %d denied", i)
		}
		if err := n.release(cell, ch); err != nil {
			return out, err
		}
	}
	out.borrowRoundNs = float64(time.Since(t0).Nanoseconds()) / float64(rounds)
	out.borrowRoundAllocs = (readMetric("/gc/heap/allocs:objects") - allocs0) / float64(rounds)

	// A neighbour's local grants while the first cell sits in borrowing
	// mode: each is announced to it with an ACQUISITION and a RELEASE.
	nbr := n.grid.Interference(cell)[0]
	for i := 0; i < rounds; i++ {
		ch := n.request(nbr)
		if !ch.Valid() {
			return out, fmt.Errorf("core drive: neighbour request %d denied", i)
		}
		if err := n.release(nbr, ch); err != nil {
			return out, err
		}
	}

	// Mode churn on a cell outside the first one's interference region,
	// so the exhausted cell does not starve it.
	other := farCell(n.grid, cell)
	held := make([]chanset.Channel, 0, prim+1)
	for i := 0; i < rounds/8+1; i++ {
		for len(held) <= prim {
			ch := n.request(other)
			if !ch.Valid() {
				break
			}
			held = append(held, ch)
		}
		for _, ch := range held {
			if err := n.release(other, ch); err != nil {
				return out, err
			}
		}
		held = held[:0]
	}
	for k := message.Request; k <= message.Release; k++ {
		if n.kindN[k] == 0 {
			return out, fmt.Errorf("core drive: no %v message was delivered", k)
		}
		out.handleNs[k] = float64(n.kindNs[k]) / float64(n.kindN[k])
	}
	return out, nil
}

// farCell returns a cell that does not interfere with c.
func farCell(g *hexgrid.Grid, c hexgrid.CellID) hexgrid.CellID {
	for o := 0; o < g.NumCells(); o++ {
		if id := hexgrid.CellID(o); id != c && !g.Interferes(c, id) {
			return id
		}
	}
	return c
}
