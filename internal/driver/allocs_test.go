package driver_test

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/message"
	"repro/internal/raceflag"
	"repro/internal/registry"
)

// Allocation budgets of the typed-event paths. testing.AllocsPerRun is
// meaningless under -race (the detector allocates), so CI runs these in
// a non-race step; `go test -race` skips them.

// envTap wraps a factory so the test can reach each cell's alloc.Env —
// the only way to Send through a driver the way an allocator does.
type envTap struct {
	alloc.Factory
	envs map[hexgrid.CellID]alloc.Env
}

type tappedAllocator struct {
	alloc.Allocator
	tap  *envTap
	cell hexgrid.CellID
}

func (f *envTap) New(cell hexgrid.CellID) alloc.Allocator {
	return &tappedAllocator{Allocator: f.Factory.New(cell), tap: f, cell: cell}
}

func (a *tappedAllocator) Start(env alloc.Env) {
	a.tap.envs[a.cell] = env
	a.Allocator.Start(env)
}

func adaptiveTap(t *testing.T) (*hexgrid.Grid, *chanset.Assignment, *envTap) {
	t.Helper()
	g, err := hexgrid.New(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	if err != nil {
		t.Fatal(err)
	}
	assign, err := chanset.Assign(g, 70)
	if err != nil {
		t.Fatal(err)
	}
	f, err := registry.Build("adaptive", g, assign, registry.Config{Latency: 10})
	if err != nil {
		t.Fatal(err)
	}
	return g, assign, &envTap{Factory: f, envs: map[hexgrid.CellID]alloc.Env{}}
}

// announce sends what a local-mode acquisition and its release send:
// an ACQUISITION then a RELEASE of ch from cell from to its neighbor to.
func announce(env alloc.Env, to hexgrid.CellID, ch chanset.Channel) {
	env.Send(message.Message{Kind: message.Acquisition, To: to, Acq: message.AcqNonSearch, Ch: ch})
	env.Send(message.Message{Kind: message.Release, To: to, Ch: ch})
}

// TestMessageDeliveryAllocatesNothing: Send -> queue -> deliver ->
// core's Handle of an ACQUISITION (and the RELEASE that undoes it) is
// zero allocations on both drivers — no closure, no boxed message.
func TestMessageDeliveryAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	g, assign, tap := adaptiveTap(t)
	from := g.InteriorCell()
	to := g.Interference(from)[0]
	ch := assign.Primary[from].First()

	s := driver.New(g, assign, tap, driver.Options{Latency: 10, Seed: 1})
	env := tap.envs[from]
	round := func() {
		announce(env, to, ch)
		if !s.Drain(16) {
			t.Fatal("serial driver did not drain")
		}
	}
	round()
	if allocs := testing.AllocsPerRun(500, round); allocs != 0 {
		t.Errorf("serial driver: %.1f allocations per Send+deliver+Handle round, want 0", allocs)
	}
	if got := s.Stats().Messages.Total; got != 2*502 {
		t.Fatalf("serial driver carried %d messages, want %d", got, 2*502)
	}

	for _, shards := range []int{1, 7} { // same shard, and (7 tiles of 7 cells) a cross-shard pair
		p, err := driver.NewParallel(g, assign, tap, driver.ParallelOptions{Latency: 10, Seed: 1, Shards: shards, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		env := tap.envs[from]
		round := func() {
			announce(env, to, ch)
			if !p.Drain(16) {
				t.Fatal("sharded driver did not drain")
			}
		}
		round()
		if allocs := testing.AllocsPerRun(500, round); allocs != 0 {
			t.Errorf("sharded driver, %d shards: %.1f allocations per Send+deliver+Handle round, want 0", shards, allocs)
		}
		if got := p.Stats().Messages.Total; got != 2*502 {
			t.Fatalf("sharded driver carried %d messages, want %d", got, 2*502)
		}
	}
}

// useRound makes cell from collect two Use snapshots from its neighbor
// to, the way the protocol does: a search REQUEST answered by
// respondSearch (the ACQUISITION(search) that follows settles to's
// waiting count), and a CHANGE_MODE there and back, each answered by a
// RESPONSE(status). Every answer carries to's live Use_i as a view, is
// copied once by the transport, and ends in from's replaceU.
func useRound(env alloc.Env, to hexgrid.CellID) {
	env.Send(message.Message{Kind: message.Request, Req: message.ReqSearch, To: to, Ch: chanset.NoChannel})
	env.Send(message.Message{Kind: message.Acquisition, Acq: message.AcqSearch, To: to, Ch: chanset.NoChannel})
	env.Send(message.Message{Kind: message.ChangeMode, To: to, Mode: message.ModeBorrowing})
	env.Send(message.Message{Kind: message.ChangeMode, To: to, Mode: message.ModeLocal})
}

// TestUseSnapshotRoundAllocatesNothing: respondSearch -> deliver ->
// replaceU and CHANGE_MODE -> RESPONSE(status) -> replaceU are zero
// allocations on both drivers — the Use set is neither cloned by the
// sender nor boxed by the transport, and the side-table slot it rides in
// is recycled.
func TestUseSnapshotRoundAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	g, assign, tap := adaptiveTap(t)
	from := g.InteriorCell()
	to := g.Interference(from)[0]
	const perRound = 7 // 4 sent by from, 3 snapshots back

	s := driver.New(g, assign, tap, driver.Options{Latency: 10, Seed: 1})
	for i := 0; i < 3; i++ { // a Use_i worth copying
		s.Request(to, nil)
	}
	s.Drain(64)
	env := tap.envs[from]
	round := func() {
		useRound(env, to)
		if !s.Drain(32) {
			t.Fatal("serial driver did not drain")
		}
	}
	round()
	if allocs := testing.AllocsPerRun(500, round); allocs != 0 {
		t.Errorf("serial driver: %.1f allocations per Use-snapshot round, want 0", allocs)
	}
	if got := s.Stats().Messages.Total; got != perRound*502 {
		t.Fatalf("serial driver carried %d messages, want %d", got, perRound*502)
	}

	for _, shards := range []int{1, 7} { // same shard, and a cross-shard pair
		p, err := driver.NewParallel(g, assign, tap, driver.ParallelOptions{Latency: 10, Seed: 1, Shards: shards, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			p.Request(to, nil)
		}
		p.Drain(64)
		env := tap.envs[from]
		round := func() {
			useRound(env, to)
			if !p.Drain(32) {
				t.Fatal("sharded driver did not drain")
			}
		}
		round()
		if allocs := testing.AllocsPerRun(500, round); allocs != 0 {
			t.Errorf("sharded driver, %d shards: %.1f allocations per Use-snapshot round, want 0", shards, allocs)
		}
		if got := p.Stats().Messages.Total; got != perRound*502 {
			t.Fatalf("sharded driver carried %d messages, want %d", got, perRound*502)
		}
	}
}

// TestSharedSnapshotRoundAllocatesNothing: every neighbor of a cell
// changes mode there and back, and the cell answers all 36 CHANGE_MODEs
// with the same Use_i. The snapshot is stored once per queue it is bound
// for — one slot serially, one per destination shard sharded — the other
// answers take a reference, and the round allocates nothing on either
// driver.
func TestSharedSnapshotRoundAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	g, assign, tap := adaptiveTap(t)
	to := g.InteriorCell()
	neighbors := g.Interference(to)
	answers := uint64(2 * len(neighbors))
	modeChanges := func() {
		for _, n := range neighbors {
			env := tap.envs[n]
			env.Send(message.Message{Kind: message.ChangeMode, To: to, Mode: message.ModeBorrowing})
			env.Send(message.Message{Kind: message.ChangeMode, To: to, Mode: message.ModeLocal})
		}
	}

	s := driver.New(g, assign, tap, driver.Options{Latency: 10, Seed: 1})
	for i := 0; i < 3; i++ { // a Use_i worth copying
		s.Request(to, nil)
	}
	s.Drain(64)
	round := func() {
		modeChanges()
		if !s.Drain(256) {
			t.Fatal("serial driver did not drain")
		}
	}
	round()
	if allocs := testing.AllocsPerRun(500, round); allocs != 0 {
		t.Errorf("serial driver: %.1f allocations per shared-snapshot round, want 0", allocs)
	}
	if fp := s.Engine().Footprint(); fp.AttParked != 502 || fp.AttShared != (answers-1)*502 {
		t.Fatalf("serial driver stored %d snapshots and shared %d, want %d and %d", fp.AttParked, fp.AttShared, 502, (answers-1)*502)
	}

	for _, shards := range []int{1, 7} { // one queue, and a neighborhood spread over three shards
		p, err := driver.NewParallel(g, assign, tap, driver.ParallelOptions{Latency: 10, Seed: 1, Shards: shards, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			p.Request(to, nil)
		}
		p.Drain(64)
		round := func() {
			modeChanges()
			if !p.Drain(256) {
				t.Fatal("sharded driver did not drain")
			}
		}
		round()
		if allocs := testing.AllocsPerRun(500, round); allocs != 0 {
			t.Errorf("sharded driver, %d shards: %.1f allocations per shared-snapshot round, want 0", shards, allocs)
		}
		reached := map[int]bool{}
		for _, n := range neighbors {
			reached[p.ShardOf(n)] = true
		}
		fp := p.Kernel().Footprint()
		// Answers go out in sender order, so one shard's are consecutive.
		if stored := uint64(len(reached)) * 502; fp.AttParked != stored || fp.AttShared != answers*502-stored {
			t.Fatalf("sharded driver, %d shards: stored %d snapshots and shared %d of %d answers to %d shards", shards, fp.AttParked, fp.AttShared, answers*502, len(reached))
		}
	}
}

// TestMulticastRoundAllocatesNothing: a broadcast ACQUISITION and the
// RELEASE that undoes it — fan post, pop-side expansion, core's Handle at
// each of the 18 neighbors — is zero allocations on both drivers, and
// counts 18 messages per broadcast in one step.
func TestMulticastRoundAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	g, assign, tap := adaptiveTap(t)
	from := g.InteriorCell()
	ch := assign.Primary[from].First()
	perRound := uint64(2 * len(g.Interference(from)))
	broadcasts := func(env alloc.Env) {
		if _, ok := env.(alloc.Multicaster); !ok {
			t.Fatalf("%T does not offer alloc.Multicaster", env)
		}
		alloc.Broadcast(env, message.Message{Kind: message.Acquisition, Acq: message.AcqNonSearch, Ch: ch})
		alloc.Broadcast(env, message.Message{Kind: message.Release, Ch: ch})
	}

	s := driver.New(g, assign, tap, driver.Options{Latency: 10, Seed: 1})
	env := tap.envs[from]
	round := func() {
		broadcasts(env)
		if !s.Drain(64) {
			t.Fatal("serial driver did not drain")
		}
	}
	round()
	if allocs := testing.AllocsPerRun(500, round); allocs != 0 {
		t.Errorf("serial driver: %.1f allocations per broadcast round, want 0", allocs)
	}
	if st, fp := s.Stats().Messages, s.Engine().Footprint(); st.Total != perRound*502 || st.ByKind[message.Release] != perRound/2*502 || fp.Pops != 2*502 {
		t.Fatalf("serial driver carried %d messages (%d releases) in %d records, want %d (%d) in %d", st.Total, st.ByKind[message.Release], fp.Pops, perRound*502, perRound/2*502, 2*502)
	}

	for _, shards := range []int{1, 7} { // one shard, and a neighborhood spread over three
		p, err := driver.NewParallel(g, assign, tap, driver.ParallelOptions{Latency: 10, Seed: 1, Shards: shards, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		env := tap.envs[from]
		round := func() {
			broadcasts(env)
			if !p.Drain(64) {
				t.Fatal("sharded driver did not drain")
			}
		}
		round()
		if allocs := testing.AllocsPerRun(500, round); allocs != 0 {
			t.Errorf("sharded driver, %d shards: %.1f allocations per broadcast round, want 0", shards, allocs)
		}
		st, fp := p.Stats().Messages, p.Kernel().Footprint()
		if st.Total != perRound*502 || fp.Pops < 2*502 || fp.Pops > 2*5*502 {
			t.Fatalf("sharded driver, %d shards: carried %d messages in %d records, want %d in a few per broadcast", shards, st.Total, fp.Pops, perRound*502)
		}
	}
}

// TestCheckerAllocatesNothing: the Theorem-1 checker reads every cell's
// in-use set through a borrowed view.
func TestCheckerAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	g, assign, tap := adaptiveTap(t)
	s := driver.New(g, assign, tap, driver.Options{Latency: 10, Seed: 1, Check: true})
	for c := 0; c < g.NumCells(); c++ {
		for i := 0; i < 3; i++ {
			s.Request(hexgrid.CellID(c), nil)
		}
	}
	s.Drain(1 << 20)
	if st := s.Stats(); st.Grants != uint64(3*g.NumCells()) {
		t.Fatalf("setup: %d grants", st.Grants)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := s.CheckInvariant(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("CheckInvariant over %d cells allocates %.1f objects, want 0", g.NumCells(), allocs)
	}
}

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
}
