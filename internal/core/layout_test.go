package core

// Tests of the per-cell layout — the slab every station holds and the
// borrowing block a station allocates on its first store: their sizes,
// their set algebra against per-set chanset.Sets, and their allocation
// and footprint budgets.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/lamport"
	"repro/internal/message"
	"repro/internal/raceflag"
	"repro/internal/sim"
)

// TestAdaptiveStructSize pins the allocator struct at 352 bytes or
// less: every station pays for it, warm or cold, and at 10^6 cells every
// size-class step is 30-60 MB. It was 448 until the ledger, DeferQ_i and
// the lender masks moved into the borrowing block behind one pointer
// (64 bytes), what the factory already knows — PR_i, the spectrum size,
// the instrument bundle and the neighbor list — was read through it
// instead of copied (64 bytes with padding), and the request FSM gave
// its grantor list to the block (40 bytes with a one-byte phase); it is
// 280 now. A defer-queue entry is 24, a ledger entry 8.
func TestAdaptiveStructSize(t *testing.T) {
	if got := unsafe.Sizeof(Adaptive{}); got > 352 {
		t.Fatalf("unsafe.Sizeof(core.Adaptive{}) = %d, budget 352", got)
	}
	if got := unsafe.Sizeof(deferred{}); got > 24 {
		t.Fatalf("unsafe.Sizeof(core.deferred{}) = %d, budget 24", got)
	}
	if got := unsafe.Sizeof(grant{}); got > 8 {
		t.Fatalf("unsafe.Sizeof(core.grant{}) = %d, budget 8", got)
	}
}

// stationAt starts cell's allocator on the given grid behind a stubEnv.
func stationAt(t testing.TB, gcfg hexgrid.Config, channels int, cell hexgrid.CellID) (*Adaptive, *stubEnv, *chanset.Assignment) {
	t.Helper()
	g, err := hexgrid.New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := chanset.Assign(g, channels)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFactory(g, assign, DefaultParams(10))
	if err != nil {
		t.Fatal(err)
	}
	a := f.New(cell).(*Adaptive)
	env := &stubEnv{id: cell, neighbors: g.Interference(cell), rand: sim.NewRand(1)}
	a.Start(env)
	return a, env, assign
}

// uOf is U_j for j = neighbors()[k]: a live view of the block's words,
// empty on a cold station.
func (a *Adaptive) uOf(k int) chanset.Set {
	if a.blk == nil {
		return chanset.Set{}
	}
	w := int(a.w)
	return chanset.FromWords(a.blk.u[k*w : (k+1)*w])
}

// ledger is the grant ledger, nil on a cold station.
func (a *Adaptive) ledger() []grant {
	if a.blk == nil {
		return nil
	}
	return a.blk.grants
}

// setModel is the per-neighbor knowledge kept the way it was before the
// slab and the ledger: one chanset.Set per U_j and per grant record, and
// a per-channel count of the neighbors believed to use it behind I_i.
type setModel struct {
	u, granted []chanset.Set
	cnt        []int
	inter      chanset.Set
}

// holds reports whether the model stores anything: a non-empty U_j or a
// pending grant.
func (m *setModel) holds() bool {
	for k := range m.u {
		if !m.u[k].Empty() || !m.granted[k].Empty() {
			return true
		}
	}
	return false
}

func newSetModel(neighbors, channels int) *setModel {
	m := &setModel{cnt: make([]int, channels), inter: chanset.NewSet(channels)}
	for i := 0; i < neighbors; i++ {
		m.u = append(m.u, chanset.NewSet(channels))
		m.granted = append(m.granted, chanset.NewSet(channels))
	}
	return m
}

func (m *setModel) addU(k int, ch chanset.Channel) {
	if !ch.Valid() || m.u[k].Contains(ch) {
		return
	}
	m.u[k].Add(ch)
	m.cnt[ch]++
	m.inter.Add(ch)
}

func (m *setModel) removeU(k int, ch chanset.Channel) {
	if !m.u[k].Contains(ch) {
		return
	}
	m.u[k].Remove(ch)
	if m.cnt[ch]--; m.cnt[ch] == 0 {
		m.inter.Remove(ch)
	}
}

// replaceU applies a snapshot and reports how many grants of k it
// resolved and how many it left pending.
func (m *setModel) replaceU(k int, snapshot chanset.Set) (erased, survived int) {
	for _, ch := range m.granted[k].Channels() {
		if snapshot.Contains(ch) {
			m.granted[k].Remove(ch)
			erased++
		} else {
			survived++
		}
	}
	snapshot = chanset.Union(snapshot, m.granted[k])
	for _, ch := range m.u[k].Channels() {
		if !snapshot.Contains(ch) {
			m.removeU(k, ch)
		}
	}
	for _, ch := range snapshot.Channels() {
		m.addU(k, ch)
	}
	return erased, survived
}

// TestSlabMatchesPerSetModel drives a station's receive procedures with
// random traffic from its neighbors and checks every set of the slab and
// of the borrowing block, and the grant ledger as the per-neighbor sets it
// stands for, against the per-set model after each message. The station
// starts cold, and its block must appear exactly with the first message
// that leaves the model holding a non-empty U_j or a pending grant (this
// traffic defers nothing and scans for no lender). It runs on a corner,
// an edge and an interior cell of an unwrapped grid (5, 8-11 and 18 neighbors) at 70
// channels and at 130 (three words per set), so neighbor-count and
// word-count arithmetic are both off the common case. The traffic must
// reach every way the ledger changes: a snapshot that shows a granted
// channel erases the entry, one that does not leaves it pending, a
// channel granted twice to one neighbor is recorded once, and NoChannel
// is never recorded.
func TestSlabMatchesPerSetModel(t *testing.T) {
	gcfg := hexgrid.Config{Shape: hexgrid.Rect, Width: 9, Height: 9, ReuseDistance: 2}
	var erased, survived, regranted int
	for _, channels := range []int{70, 130} {
		for _, cell := range []hexgrid.CellID{0, 4, 40} {
			a, env, _ := stationAt(t, gcfg, channels, cell)
			n := len(a.neighbors())
			if cell == 40 && n != 18 || cell != 40 && n >= 18 {
				t.Fatalf("cell %d has %d neighbors: the grid no longer gives the mix this test wants", cell, n)
			}
			w := (channels + 63) / 64
			if int(a.w) != w || len(a.slab) != numMasks+numSets*w || a.Warm() {
				t.Fatalf("cell %d, %d channels: w=%d, slab of %d words, warm %v at Start", cell, channels, a.w, len(a.slab), a.Warm())
			}
			// The first coldUntil messages are releases and empty
			// snapshots, which store nothing; random traffic follows.
			warmAt, coldUntil := -1, 10+channels%7+int(cell)%5
			model := newSetModel(n, channels)
			rng := sim.NewRand(uint64(channels) + uint64(cell))
			for step := 0; step < 3000; step++ {
				k := rng.Intn(n)
				from := a.neighbors()[k]
				ch := chanset.Channel(rng.Intn(channels))
				env.now++
				m := message.Message{From: from, To: cell, Ch: ch, TS: lamport.Stamp{Time: int64(step), Node: int32(from)}}
				cold := step < coldUntil
				kind := rng.Intn(5)
				if cold {
					kind = 1 + 2*rng.Intn(2)
				}
				switch kind {
				case 0:
					m.Kind, m.Acq = message.Acquisition, message.AcqNonSearch
					model.granted[k].Remove(ch)
					model.addU(k, ch)
				case 1:
					m.Kind = message.Release
					model.granted[k].Remove(ch)
					model.removeU(k, ch)
				case 2: // an update request: granted unless the channel is in use here
					m.Kind, m.Req = message.Request, message.ReqUpdate
					if !a.InUse().Contains(ch) {
						if model.granted[k].Contains(ch) {
							regranted++
						}
						model.granted[k].Add(ch)
						model.addU(k, ch)
					}
				default: // a Use snapshot, sometimes trimmed to fewer words
					m.Kind, m.Res, m.Ch = message.Response, message.ResStatus, chanset.NoChannel
					var limit int
					if rng.Intn(2) == 0 {
						m.Res = message.ResSearch
					}
					m.Use, limit = chanset.NewSet(channels), channels
					if rng.Intn(4) == 0 {
						m.Use, limit = chanset.NewSet(64), 64
					}
					for i := rng.Intn(8); i > 0 && !cold; i-- {
						m.Use.Add(chanset.Channel(rng.Intn(limit)))
					}
					if held := model.granted[k].Channels(); len(held) > 0 && rng.Intn(2) == 0 {
						if ch := held[rng.Intn(len(held))]; int(ch) < limit {
							m.Use.Add(ch) // the borrower's acquisition shows
						}
					}
					e, s := model.replaceU(k, m.Use)
					erased, survived = erased+e, survived+s
				}
				a.Handle(m)
				env.take()
				a.grantRecord(k, chanset.NoChannel)
				if warmAt < 0 && model.holds() {
					warmAt = step
				}
				if a.Warm() != (warmAt >= 0) {
					t.Fatalf("cell %d, %d ch, step %d (%v): warm %v, but the model first held something at step %d", cell, channels, step, m, a.Warm(), warmAt)
				}
				if a.Warm() && len(a.blk.u) != n*w {
					t.Fatalf("cell %d, %d ch: block of %d U_j words, want %d", cell, channels, len(a.blk.u), n*w)
				}
				ledger, entries := newSetModel(n, channels).granted, 0
				for _, g := range a.ledger() {
					ledger[g.k].Add(g.ch)
				}
				for j := 0; j < n; j++ {
					if got := a.uOf(j); !got.Equal(model.u[j]) {
						t.Fatalf("cell %d, %d ch, step %d (%v): U_%d = %v, model %v", cell, channels, step, m, a.neighbors()[j], got, model.u[j])
					}
					if !ledger[j].Equal(model.granted[j]) {
						t.Fatalf("cell %d, %d ch, step %d (%v): grant record of %d = %v, model %v", cell, channels, step, m, a.neighbors()[j], ledger[j], model.granted[j])
					}
					entries += ledger[j].Len()
				}
				if entries != len(a.ledger()) {
					t.Fatalf("cell %d, %d ch, step %d (%v): %d ledger entries for %d distinct grants: %v", cell, channels, step, m, len(a.ledger()), entries, a.ledger())
				}
				if got := a.view(setInter); !got.Equal(model.inter) {
					t.Fatalf("cell %d, %d ch, step %d (%v): I_i = %v, model %v", cell, channels, step, m, got, model.inter)
				}
				if !a.InUse().Empty() || a.counters.BadMessages != 0 {
					t.Fatalf("cell %d step %d: Use_i = %v, %d bad messages; the traffic should touch neither", cell, step, a.InUse(), a.counters.BadMessages)
				}
			}
			if warmAt < coldUntil {
				t.Fatalf("cell %d, %d ch: warm at step %d, inside the %d cold messages", cell, channels, warmAt, coldUntil)
			}
		}
	}
	if erased < 100 || survived < 100 || regranted < 10 {
		t.Fatalf("the traffic is vacuous for the ledger: %d grants erased by snapshots, %d left pending by one, %d granted twice", erased, survived, regranted)
	}
}

// TestNeighborMasksPastOneWord: a neighborhood wider than 64 cells
// spreads UpdateS_i and the await mask over several slab words, and the
// lender scan falls back from the precomputed overlap masks.
func TestNeighborMasksPastOneWord(t *testing.T) {
	gcfg := hexgrid.Config{Shape: hexgrid.Rect, Width: 15, Height: 15, ReuseDistance: 5, Wrap: true}
	a, env, _ := stationAt(t, gcfg, 200, 0)
	n := len(a.neighbors())
	if n <= 64 {
		t.Fatalf("reuse distance 5 gives %d neighbors, want more than 64", n)
	}
	if got := int(a.setOff); got != numMasks*((n+63)/64) {
		t.Fatalf("mask words: setOff = %d for %d neighbors", got, n)
	}
	a.awaitAll()
	if int(a.awaitN) != n || !a.inMask(maskAwait, n-1) || !a.inMask(maskAwait, 64) {
		t.Fatalf("awaitAll over %d neighbors: awaitN %d", n, a.awaitN)
	}
	for k := 0; k < n; k++ {
		a.awaitClear(k)
		a.awaitClear(k) // idempotent
	}
	if a.awaitN != 0 {
		t.Fatalf("awaitN = %d after clearing every neighbor", a.awaitN)
	}
	for _, w := range a.words(setUse) {
		if w != 0 {
			t.Fatal("mask writes ran into Use_i")
		}
	}
	// Two neighbors past index 63 enter borrowing mode; a primary
	// acquisition is then announced to exactly those two, in order.
	for _, k := range []int{70, 65} {
		a.Handle(message.Message{Kind: message.ChangeMode, From: a.neighbors()[k], To: 0, Mode: message.ModeBorrowing})
	}
	env.take()
	a.Request(1)
	var to []hexgrid.CellID
	for _, m := range env.take() {
		if m.Kind == message.Acquisition {
			to = append(to, m.To)
		}
	}
	if len(to) != 2 || to[0] != a.neighbors()[65] || to[1] != a.neighbors()[70] {
		t.Fatalf("acquisition announced to %v, want [%d %d]", to, a.neighbors()[65], a.neighbors()[70])
	}
	if a.best(); !a.Warm() || a.blk.masks != nil {
		t.Fatal("overlap masks built for a neighborhood wider than one word")
	}
}

// TestNeighborMasksAreInternedMerges: the overlap vector a cell builds
// by merging sorted interference lists is, bit for bit, the one a binary
// search per member of every IN_j gives; cells of one neighborhood shape
// share one vector through the factory — a wrapped grid has a few dozen
// shapes for any number of cells, an unwrapped one more along its rim —
// and building the vector of a shape already seen allocates nothing.
func TestNeighborMasksAreInternedMerges(t *testing.T) {
	for _, wrap := range []bool{true, false} {
		g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 12, Height: 12, ReuseDistance: 2, Wrap: wrap})
		f, err := NewFactory(g, chanset.MustAssign(g, 70), DefaultParams(10))
		if err != nil {
			t.Fatal(err)
		}
		station := func(c hexgrid.CellID) *Adaptive {
			a := f.New(c).(*Adaptive)
			a.Start(&stubEnv{id: c, neighbors: g.Interference(c), rand: sim.NewRand(1)})
			return a
		}
		byShape := map[string]*uint64{}
		for c := 0; c < g.NumCells(); c++ {
			a := station(hexgrid.CellID(c))
			a.buildNbrMasks()
			masks := a.blk.masks[:len(a.neighbors())]
			for ji, j := range a.neighbors() {
				var want uint64
				for _, k := range g.Interference(j) {
					if idx := a.nbrIdx(k); idx >= 0 {
						want |= 1 << uint(idx)
					}
				}
				if masks[ji] != want {
					t.Fatalf("cell %d, neighbor %d: mask %#x, want %#x", c, j, masks[ji], want)
				}
			}
			for _, rest := range a.blk.masks[len(masks):] {
				if rest != 0 {
					t.Fatalf("cell %d: a mask past its %d neighbors", c, len(masks))
				}
			}
			shape := fmt.Sprint(masks)
			if first, seen := byShape[shape]; !seen {
				byShape[shape] = &a.blk.masks[0]
			} else if first != &a.blk.masks[0] {
				t.Fatalf("cell %d keeps a private copy of a vector another cell holds", c)
			}
		}
		if len(byShape) != len(f.masks) || wrap && len(byShape) > 32 || !wrap && len(byShape) < 10 {
			t.Fatalf("wrap=%v: %d distinct vectors among %d cells, %d interned", wrap, len(byShape), g.NumCells(), len(f.masks))
		}
		if !raceflag.Enabled {
			a := station(g.InteriorCell())
			if allocs := testing.AllocsPerRun(100, a.buildNbrMasks); allocs != 0 {
				t.Errorf("wrap=%v: building a vector the factory holds allocates %.1f objects, want 0", wrap, allocs)
			}
		}
	}
}

// TestLenderScratchSharedAcrossGoroutines: the lender scan's scratch
// comes from one pool on the factory, and on livenet/netrun the cells of
// one factory run on different goroutines. Eight stations scan
// concurrently (run under -race); each must keep choosing the lender it
// chose alone, whatever its neighbors' scans leave in the pool.
func TestLenderScratchSharedAcrossGoroutines(t *testing.T) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 9, Height: 9, ReuseDistance: 2})
	assign := chanset.MustAssign(g, 70)
	f, err := NewFactory(g, assign, DefaultParams(10))
	if err != nil {
		t.Fatal(err)
	}
	cells := []hexgrid.CellID{0, 4, 8, 36, 40, 44, 72, 80} // corners, edges, interior: different widths
	stations := make([]*Adaptive, len(cells))
	want := make([]hexgrid.CellID, len(cells))
	for i, c := range cells {
		a := f.New(c).(*Adaptive)
		a.Start(&stubEnv{id: c, neighbors: g.Interference(c), rand: sim.NewRand(uint64(c) + 1)})
		// A different neighbor in borrowing mode and a different busy
		// channel per station, so the scans differ.
		a.Handle(message.Message{Kind: message.ChangeMode, From: a.neighbors()[i%len(a.neighbors())], To: c, Mode: message.ModeBorrowing})
		a.Handle(message.Message{Kind: message.Acquisition, From: a.neighbors()[0], To: c, Ch: chanset.Channel(i)})
		stations[i], want[i] = a, a.best()
		if want[i] == hexgrid.None {
			t.Fatalf("cell %d found no lender", c)
		}
	}
	var wg sync.WaitGroup
	for i, a := range stations {
		wg.Add(1)
		go func(i int, a *Adaptive) {
			defer wg.Done()
			for n := 0; n < 2000; n++ {
				if got := a.best(); got != want[i] {
					t.Errorf("cell %d: scan %d chose lender %d, alone it chose %d", cells[i], n, got, want[i])
					return
				}
			}
		}(i, a)
	}
	wg.Wait()
}

// TestCheckModeAllocatesNothing: in steady state — the free-primary
// count moving up and down, the NFC ring appending and evicting —
// check_mode allocates nothing.
func TestCheckModeAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	a, env, assign := stationAt(t, hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true}, 70, 24)
	nbr := a.neighbors()[0]
	ch := assign.Primary[24].First() // a neighbor on our primary moves our free count
	round := func() {
		env.now += 7
		a.Handle(message.Message{Kind: message.Acquisition, Acq: message.AcqNonSearch, From: nbr, To: 24, Ch: ch})
		env.now += 7
		a.Handle(message.Message{Kind: message.Release, From: nbr, To: 24, Ch: ch})
		a.checkMode()
	}
	for i := 0; i < 200; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Fatalf("three check_mode calls allocate %.2f objects in steady state, want 0", allocs)
	}
	if len(env.sent) != 0 || a.mode != ModeLocal {
		t.Fatalf("the rounds were meant to stay in local mode: mode %d, %d messages", a.mode, len(env.sent))
	}
}

// footprintNet hosts one allocator per cell behind envs that deliver
// through one FIFO queue. Everything it owns is allocated before the
// footprint test takes its baseline, so heap growth is core's alone.
type footprintNet struct {
	grid   *hexgrid.Grid
	allocs []alloc.Allocator
	envs   []footprintEnv
	queue  []message.Message
	words  []uint64 // arena for queued Use words, reused every drain
	now    sim.Time
}

type footprintEnv struct {
	net     *footprintNet
	cell    hexgrid.CellID
	rand    sim.Rand
	granted chanset.Channel
}

func (e *footprintEnv) ID() hexgrid.CellID          { return e.cell }
func (e *footprintEnv) Neighbors() []hexgrid.CellID { return e.net.grid.Interference(e.cell) }
func (e *footprintEnv) Now() sim.Time               { return e.net.now }
func (e *footprintEnv) Latency() sim.Time           { return 10 }
func (e *footprintEnv) Began(alloc.RequestID)       {}
func (e *footprintEnv) Denied(alloc.RequestID)      {}
func (e *footprintEnv) Rand() *sim.Rand             { return &e.rand }
func (e *footprintEnv) Moved(_, _ chanset.Channel)  { panic("unused") }
func (e *footprintEnv) Granted(_ alloc.RequestID, ch chanset.Channel) {
	e.granted = ch
}

// Send takes the transport's copy into the net's arena.
func (e *footprintEnv) Send(m message.Message) {
	n := e.net
	if w := m.Use.Words(); len(w) > 0 {
		off := len(n.words)
		n.words = append(n.words, w...)
		m.Use = chanset.FromWords(n.words[off:])
	}
	n.queue = append(n.queue, m)
}

func (n *footprintNet) drain() {
	for i := 0; i < len(n.queue); i++ {
		if i%64 == 0 {
			n.now += 10
		}
		n.allocs[n.queue[i].To].Handle(n.queue[i])
	}
	n.queue, n.words = n.queue[:0], n.words[:0]
}

// newFootprintNet builds 32x32 wrapped cells at 70 channels and 18
// neighbors — every station's slab is then 8 words — with everything the
// net owns allocated, and the allocators not yet started.
func newFootprintNet(t *testing.T) (*footprintNet, *Factory) {
	t.Helper()
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 32, Height: 32, ReuseDistance: 2, Wrap: true})
	f, err := NewFactory(g, chanset.MustAssign(g, 70), DefaultParams(10))
	if err != nil {
		t.Fatal(err)
	}
	cells := g.NumCells()
	return &footprintNet{
		grid:   g,
		allocs: make([]alloc.Allocator, cells),
		envs:   make([]footprintEnv, cells),
		queue:  make([]message.Message, 0, 4096),
		words:  make([]uint64, 0, 8192),
	}, f
}

// start builds and starts every cell's allocator.
func (n *footprintNet) start(f *Factory) {
	for c := range n.allocs {
		n.envs[c] = footprintEnv{net: n, cell: hexgrid.CellID(c), rand: *sim.NewRand(uint64(c) + 1)}
		n.allocs[c] = f.New(hexgrid.CellID(c))
		n.allocs[c].Start(&n.envs[c])
	}
}

// settledHeap is the live heap after the collector has settled.
func settledHeap() uint64 {
	// Twice: the first collection only moves sync.Pool contents and
	// finalizable garbage of earlier tests to where the second frees
	// them, and garbage alive at the baseline would deflate the delta.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestPerCellFootprintBudget measures what one warm cell costs in core:
// N cells at 70 channels and 18 neighbors, each driven through
// everything that materializes state — its primaries exhausted, the
// switch to borrowing mode, a lender scan, a borrowing round that ends
// in a grant, and every channel released again. GC-settled heap growth
// / N must stay under the ceiling, and a warm cell may cost no more than
// it did before cold stations (1 108 B with everything allocated at
// Start). (The same drive cost about 4.6 KB per cell with a chanset.Set
// per U_j and the candidate scratch in every cell.)
func TestPerCellFootprintBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's shadow allocations count as heap")
	}
	const ceiling, eager = 1200, 1108 // bytes per cell
	net, f := newFootprintNet(t)
	before := settledHeap()
	net.start(f)
	var id alloc.RequestID
	borrowed := 0
	held := make([]chanset.Channel, 0, 16)
	for c := range net.allocs {
		a, env := net.allocs[c].(*Adaptive), &net.envs[c]
		if len(a.neighbors()) != 18 {
			t.Fatalf("cell %d has %d neighbors", c, len(a.neighbors()))
		}
		held = held[:0]
		for i := 0; i <= a.primary().Len(); i++ { // every primary, then one borrowed
			id++
			env.granted = chanset.NoChannel
			a.Request(id)
			net.drain()
			if !env.granted.Valid() {
				t.Fatalf("cell %d: request %d of %d not granted", c, i+1, a.primary().Len()+1)
			}
			held = append(held, env.granted)
		}
		if a.primary().Contains(held[len(held)-1]) || !a.Warm() || a.blk.masks == nil {
			t.Fatalf("cell %d: last grant %d was not borrowed through a lender scan", c, held[len(held)-1])
		}
		borrowed++
		for _, ch := range held {
			if err := a.Release(ch); err != nil {
				t.Fatal(err)
			}
			net.drain()
		}
	}
	perCell := float64(settledHeap()-before) / float64(len(net.allocs))
	runtime.KeepAlive(net)
	t.Logf("core footprint: %.0f bytes per warm cell (%d cells, each through borrow, best() and a grant; ceiling %d)", perCell, borrowed, ceiling)
	if perCell > ceiling || perCell > eager+16 {
		t.Fatalf("core costs %.0f bytes per warm cell, ceiling %d and at most 16 above the %d of eager allocation", perCell, ceiling, eager)
	}
}

// TestColdStationFootprint measures what a station costs while it never
// borrows, lends or hears of a borrowed channel: N cells that grant and
// release one primary each, locally, after a neighbor has announced
// borrowing mode and returned to local — CHANGE_MODE and status replies
// carrying an empty Use_i, which store nothing. No station may hold a
// borrowing block, each keeps an 8-word slab, and GC-settled heap growth
// / N stays under 520 B (896 B when every station allocated U_j and the
// rest at Start).
func TestColdStationFootprint(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's shadow allocations count as heap")
	}
	const ceiling = 520 // bytes per cell
	net, f := newFootprintNet(t)
	before := settledHeap()
	net.start(f)
	var id alloc.RequestID
	for c := range net.allocs {
		a, env := net.allocs[c].(*Adaptive), &net.envs[c]
		nbr := a.neighbors()[0]
		for _, mode := range []uint8{message.ModeBorrowing, message.ModeLocal} {
			net.queue = append(net.queue, message.Message{Kind: message.ChangeMode, From: nbr, To: a.cell, Mode: mode})
		}
		net.drain()
		id++
		env.granted = chanset.NoChannel
		a.Request(id)
		net.drain()
		if !a.primary().Contains(env.granted) {
			t.Fatalf("cell %d: request not granted a primary locally (got %d)", c, env.granted)
		}
		if err := a.Release(env.granted); err != nil {
			t.Fatal(err)
		}
		net.drain()
	}
	perCell := float64(settledHeap()-before) / float64(len(net.allocs))
	runtime.KeepAlive(net)
	for c := range net.allocs {
		a := net.allocs[c].(*Adaptive)
		if a.Warm() || len(a.slab) != 8 || a.counters.BadMessages != 0 || a.counters.GrantsLocal != 1 {
			t.Fatalf("cell %d: warm %v, slab of %d words, %+v", c, a.Warm(), len(a.slab), a.counters)
		}
	}
	t.Logf("core footprint: %.0f bytes per cold cell (%d cells; ceiling %d)", perCell, len(net.allocs), ceiling)
	if perCell > ceiling {
		t.Fatalf("core costs %.0f bytes per cold cell, ceiling %d", perCell, ceiling)
	}
}

// TestColdStationReadsAllocateNothing: on a cold station, the reads of the
// borrowing block — a grant lookup, a release by a neighbor, an empty
// snapshot, the DeferQ_i drain — answer "empty" without allocating it
// or anything else.
func TestColdStationReadsAllocateNothing(t *testing.T) {
	a, _, _ := stationAt(t, hexgrid.Config{Shape: hexgrid.Rect, Width: 9, Height: 9, ReuseDistance: 2}, 70, 40)
	empty := chanset.NewSet(70)
	reads := map[string]func(){
		"granted":           func() { a.granted(3, 12) },
		"removeU":           func() { a.removeU(3, 12) },
		"replaceU(empty)":   func() { a.replaceU(3, empty) },
		"replaceU(nil)":     func() { a.replaceU(3, chanset.Set{}) },
		"DeferQ_i drain":    func() { a.acquire(chanset.NoChannel) },
		"refreshInter":      func() { a.refreshInter(1) },
		"grantResolve":      func() { a.grantResolve(3, 12) },
		"grantRecord(none)": func() { a.grantRecord(3, chanset.NoChannel) },
		"addU(none)":        func() { a.addU(3, chanset.NoChannel) },
	}
	for name, read := range reads {
		if allocs := testing.AllocsPerRun(100, read); allocs != 0 && !raceflag.Enabled {
			t.Errorf("%s on a cold station allocates %.1f objects", name, allocs)
		}
		if a.Warm() || !a.view(setInter).Empty() {
			t.Fatalf("%s warmed the station or touched I_i", name)
		}
	}
}
