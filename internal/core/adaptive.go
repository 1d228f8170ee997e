// Package core implements the paper's contribution: the adaptive
// distributed dynamic channel-allocation scheme (Kahol, Khurana, Gupta,
// Srimani 1998, Figures 2-10), re-derived as an event-driven state
// machine over the alloc SPI.
//
// Each station holds the paper's variables: PR_i (static primaries),
// Use_i, U_j / I_i (neighborhood usage knowledge), NFC_i (free-primary
// history window), mode_i ∈ {0,1,2,3}, UpdateS_i, DeferQ_i, waiting_i,
// pending_i and rounds. The blocking "wait UNTIL" points of Figure 2
// become the phases of an explicit request FSM (see protocol.go).
package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/lamport"
	"repro/internal/message"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Params are the tuning knobs of the adaptive scheme.
type Params struct {
	// ThetaLow is θ_l: a station predicted to have fewer than θ_l free
	// primary channels (a round trip from now) enters borrowing mode.
	// Must be > 0 so that a station with zero free primaries always
	// enters borrowing mode.
	ThetaLow float64
	// ThetaHigh is θ_h (> θ_l): a borrowing station predicted to have
	// at least θ_h free primaries returns to local mode.
	ThetaHigh float64
	// Alpha is α: the maximum number of borrowing-update attempts
	// before the station falls back to a borrowing search. Must be >= 0;
	// 0 means "always search when borrowing".
	Alpha int
	// Window is W: how far back the NFC predictor looks. Must be > 0.
	Window sim.Time
	// Repack enables channel repacking (an extension beyond the paper):
	// when a primary channel is freed while the cell holds borrowed
	// channels, one borrowed call is switched onto the freed primary
	// (intra-cell handoff) and the borrowed channel is returned to the
	// region instead. Requires a runtime that supports Env.Moved (the
	// DES driver does).
	Repack bool
	// Predictor overrides the NFC predictor driving check_mode (nil:
	// the paper's windowed linear extrapolation, LinearPredictor).
	// Named construction lives in internal/policy.
	Predictor PredictorBuilder
	// Strategy selects the lender on the borrow path (nil: the paper's
	// Best() of Figure 10, BestLender).
	Strategy LenderStrategy
}

// OrDefaults returns p, or DefaultParams(latency) with p's policies
// when p sets no scalar tuning (a policy-only override, or nothing).
func (p Params) OrDefaults(latency sim.Time) Params {
	d := p
	d.Predictor, d.Strategy = nil, nil
	if d != (Params{}) {
		return p
	}
	d = DefaultParams(latency)
	d.Predictor, d.Strategy = p.Predictor, p.Strategy
	return d
}

// DefaultParams returns the parameter set used throughout the
// experiments unless a sweep overrides it: thresholds 1/3 with a window
// of 50 T-units and α = 3 attempts.
func DefaultParams(latency sim.Time) Params {
	// A non-positive latency would zero the window and make the derived
	// params fail Validate (the NFC predictor divides by Window).
	if latency <= 0 {
		latency = 1
	}
	return Params{
		ThetaLow:  1,
		ThetaHigh: 3,
		Alpha:     3,
		Window:    50 * latency,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.ThetaLow <= 0 {
		return fmt.Errorf("core: ThetaLow must be > 0, got %v", p.ThetaLow)
	}
	if p.ThetaHigh <= p.ThetaLow {
		return fmt.Errorf("core: ThetaHigh (%v) must exceed ThetaLow (%v)", p.ThetaHigh, p.ThetaLow)
	}
	if p.Alpha < 0 {
		return fmt.Errorf("core: Alpha must be >= 0, got %d", p.Alpha)
	}
	if p.Window <= 0 {
		return fmt.Errorf("core: Window must be > 0, got %d", p.Window)
	}
	return nil
}

// Factory builds adaptive allocators for a given grid and primary plan.
// It must not be copied after first use (it holds a sync.Pool).
type Factory struct {
	grid     *hexgrid.Grid
	assign   *chanset.Assignment
	params   Params
	strategy LenderStrategy
	// Journal, when non-nil, receives the protocol's event records; set
	// it before the cells start. It observes the protocol and never feeds
	// back into its decisions.
	Journal *obs.Journal
	// scratch pools best()'s candidate storage. A lender scan consumes
	// its candidates before it returns, so the storage belongs to no
	// cell; a pool keeps it per worker on the sharded kernel and safe on
	// the live runtimes, where cells of one factory run on different
	// goroutines.
	scratch sync.Pool
	// overlap holds a read-only table per stencil class of the grid
	// (hexgrid.Grid.Class). For a cell of the class, row k marks, by
	// neighbor index, which of its neighbors also interfere with
	// neighbors()[k], in ⌈n/64⌉ words, so best() counts |UpdateS_i ∩ IN_j|
	// with an AND and a popcount per word. Cells of one class have the
	// same lists up to translation, so they share the table; the first
	// lender scan of the class builds it (overlapOf).
	overlap []atomic.Pointer[[]uint64]
	// slabs hands out the stations' slabs.
	slabs wordArena
	// The backing arrays of the borrowing blocks' lists, pooled so that
	// an array one station outgrows serves the next station to grow to
	// its size (recycler.add).
	grantArrays   recycler[grant]
	deferArrays   recycler[deferred]
	grantorArrays recycler[hexgrid.CellID]
}

// recycler grows the borrowing blocks' lists (grants, DeferQ_i,
// grantors) by doubling and keeps the arrays they outgrow for the next
// list to grow to that size, in a sync.Pool per capacity class: class c
// holds arrays of capacity 1<<c, each as a pointer to its first element,
// which an interface holds without allocating. A large warm run
// allocates too little after priming to trigger a collection, so every
// outgrown array would otherwise add to the process's peak; where
// collections do run, they empty the pools, so nothing is kept that no
// station takes. Cells of one factory grow
// on different goroutines (shard workers, a netrun node's loop); a Put
// happens before the Get that returns it.
type recycler[T any] struct {
	classes [bits.UintSize]sync.Pool
	// off makes add grow by plain allocation and keep nothing: the
	// reference a test compares recycling against.
	off bool
}

// add appends v to s. When s is full its next array, of twice the
// capacity, comes out of the pool if one is there, and s goes into the
// pool — but only once it has been copied out: from then on another
// station may take it and write over it.
func (r *recycler[T]) add(s []T, v T) []T {
	if len(s) < cap(s) {
		return append(s, v)
	}
	c := bits.Len(uint(cap(s))) // the class of the next array
	var next []T
	if p, ok := r.classes[c].Get().(*T); ok {
		next = unsafe.Slice(p, 1<<c)[:0]
	} else {
		next = make([]T, 0, 1<<c)
	}
	next = append(append(next, s...), v)
	if cap(s) > 0 && !r.off {
		r.classes[c-1].Put(unsafe.SliceData(s)) // cap(s) is 1<<(c-1)
	}
	return next
}

// wordArena carves word slabs out of shared pointer-free chunks, so a
// station's slab is not an object of its own: one allocation serves
// arenaChunk words' worth of stations, and the collector never scans
// them. Chunks stay small: the last one's unused tail is heap that no
// station uses.
// Cells of one factory may start on different goroutines (a netrun node
// starts its cells on its own loop), so take locks.
type wordArena struct {
	mu   sync.Mutex
	free []uint64
}

// arenaChunk is the size of one arena chunk in words (4 KiB).
const arenaChunk = 512

// take returns n zeroed words as a capped view, so a stray append can
// never run into the next slab.
func (ar *wordArena) take(n int) []uint64 {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	if len(ar.free) < n {
		ar.free = make([]uint64, max(n, arenaChunk))
	}
	s := ar.free[:n:n]
	ar.free = ar.free[n:]
	return s
}

// NewFactory validates params and returns a Factory.
func NewFactory(grid *hexgrid.Grid, assign *chanset.Assignment, params Params) (*Factory, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if assign.NumChannels > maxNFCCount {
		return nil, fmt.Errorf("core: %d channels exceed the %d a free-primary sample can count", assign.NumChannels, maxNFCCount)
	}
	params.Predictor = cmp.Or(params.Predictor, LinearPredictor())
	return &Factory{
		grid: grid, assign: assign, params: params,
		strategy: cmp.Or(params.Strategy, BestLender()),
		scratch:  sync.Pool{New: func() any { return new(lenderScratch) }},
		overlap:  make([]atomic.Pointer[[]uint64], grid.NumClasses()),
	}, nil
}

// overlapOf returns the overlap table of cell's class (Factory.overlap),
// building it from cell on the class's first lender scan: row k is one
// merge of the cell's sorted list with its neighbor k's. Built when
// needed, a grid pays only for the classes that borrow: a 7×7 wrapped
// grid has 25 classes for its 49 cells, and a grid whose sides are
// within 2D+1 has a class per cell. Scans racing on a class build equal
// tables, and either may stay.
func (f *Factory) overlapOf(cell hexgrid.CellID) []uint64 {
	slot := &f.overlap[f.grid.Class(cell)]
	if t := slot.Load(); t != nil {
		return *t
	}
	nbrs := f.grid.Interference(cell)
	mw := (len(nbrs) + 63) / 64
	t := make([]uint64, len(nbrs)*mw)
	for k, j := range nbrs {
		in, i := f.grid.Interference(j), 0
		for idx, nb := range nbrs {
			for i < len(in) && in[i] < nb {
				i++
			}
			if i < len(in) && in[i] == nb {
				t[k*mw+idx/64] |= 1 << (idx % 64)
			}
		}
	}
	slot.Store(&t)
	return t
}

// Name implements alloc.Factory.
func (f *Factory) Name() string { return "adaptive" }

// New implements alloc.Factory.
func (f *Factory) New(cell hexgrid.CellID) alloc.Allocator {
	return &Adaptive{factory: f, cell: cell}
}

// Mode values of the paper (the mode_i variable).
const (
	ModeLocal        = 0 // local allocation only
	ModeBorrow       = 1 // borrowing, no request in flight
	ModeBorrowUpdate = 2 // borrowing, update request pending
	ModeBorrowSearch = 3 // borrowing, search request pending
)

// deferred is one entry of DeferQ_i. The request's timestamp is kept as
// its two fields so the entry packs into 24 bytes, not 32.
type deferred struct {
	tsTime int64
	tsNode int32
	ch     chanset.Channel
	k      int32 // the requester's neighbor index
	search bool  // true: search request; false: update request
}

// ts is the deferred request's timestamp.
func (d deferred) ts() lamport.Stamp { return lamport.Stamp{Time: d.tsTime, Node: d.tsNode} }

// The channel sets of a cell's slab, by set index (see Adaptive.slab).
const (
	setUse     = iota // Use_i
	setInter          // I_i: the union of every U_j
	setScratch        // the result of freePrimary/freeAnywhere
	numSets
)

// The neighbor masks at the front of the slab.
const (
	maskUpdateS = iota // UpdateS_i
	maskAwait          // neighbors the active request phase still awaits
	numMasks
)

// Adaptive is one cell's adaptive allocator.
//
// Everything the station knows per channel or per neighbor lives in flat
// word slabs, in neighbor-index order over the cell's sorted
// interference list: a set is a run of w words, a bit is
// slab[off+ch/64], and no set has a header of its own. Maps keyed by
// cell id cost ~50 bytes of bucket overhead per neighbor per cell and a
// chanset.Set per neighbor costs a 24-byte header plus a pointer hop on
// every bit test; at 10^6 cells x 18 neighbors either dominates
// steady-state memory, while a sender's index is one load from the
// grid's per-class slot table (hexgrid.Grid.Slot). Where set algebra
// wants a chanset.Set, view
// builds one on the stack over the slab's words.
//
// What the factory knows — PR_i, the spectrum, the journal and the
// interference list every Env hands out as grid.Interference(cell) — is
// read through it, not copied into every station.
type Adaptive struct {
	factory *Factory
	env     alloc.Env

	// slab holds, in order: the numMasks neighbor masks (bit k stands for
	// neighbors()[k]; (n+63)/64 words each, so neighborhoods past 64
	// cells just take more words), then Use_i, I_i and the free-set
	// scratch, w words each. It is a capped view of the factory's word
	// arena (Factory.slabs), not an object of its own.
	slab []uint64
	// blk is the borrowing block, nil while the station is cold.
	blk *borrowing

	// pred forecasts the free-primary count for check_mode (policy.go);
	// fixed at Start, and &nfc for the paper's predictor. The lender
	// strategy is the factory's.
	pred Predictor

	req *request // active request FSM, nil when idle

	// nfc is NFC_i when the factory's predictor is LinearPredictor(), the
	// default: the window lives in the station, so a station and its
	// history are one allocation and check_mode reads one object. Another
	// predictor is an object of its own and nfc stays zero. A station is
	// never copied, so the window's ring may point into it. The ring is
	// the station's last pointer: what follows is scalars, which the
	// collector does not scan.
	nfc linearPredictor

	// reqBuf backs req: one request is in flight at a time, so the FSM
	// state is reused across requests instead of allocated per request.
	reqBuf request

	clock    lamport.Clock
	counters alloc.Counters

	cell    hexgrid.CellID
	w       int32 // words per channel set
	setOff  int32 // slab offset of set 0: numMasks mask regions precede it
	mode    int32
	waiting int32
	rounds  int32
	// awaitN counts the bits of the await mask. One phase collects at a
	// time, so the mask is shared across phases and requests.
	awaitN  int32
	pending bool
}

// borrowing is a station's borrowing block: the only storage of what it
// keeps once it takes part in borrowing — as a lender, as a borrower or
// as the neighbor of one. At low load most stations never store here, so
// the block is allocated by the first store (warm) and every read of a
// cold station answers "empty" without allocating.
type borrowing struct {
	// u holds U_j for j = neighbors()[k] at words k·w to (k+1)·w.
	u []uint64
	// grants is the grant ledger: a pair (k, ch) for every channel we
	// granted to neighbors()[k] that it has not yet visibly acquired or
	// released. A borrowing-update winner acquires silently (Figure 3,
	// mode 2), so a Use-set snapshot taken by j between our grant and its
	// acquisition would otherwise erase the channel from U_j and let us
	// reuse it concurrently (DESIGN.md D9). A station has a handful
	// outstanding at worst, and pays for those, not for a set per neighbor.
	grants []grant
	// deferQ is DeferQ_i. acquire drains it in place, so one backing
	// array serves every defer-and-drain cycle of a hot cell.
	deferQ []deferred
	// grantors are the neighbors that granted the update attempt in
	// flight, in arrival order: a rejected attempt releases to them.
	grantors []hexgrid.CellID
}

// Start implements alloc.Allocator.
func (a *Adaptive) Start(env alloc.Env) {
	a.env = env
	assign := a.factory.assign
	a.clock = *lamport.NewClock(int32(a.cell))
	a.w = int32((assign.NumChannels + 63) / 64)
	a.setOff = int32(numMasks * ((len(a.neighbors()) + 63) / 64))
	a.slab = a.factory.slabs.take(int(a.setOff) + numSets*int(a.w))
	if b := a.factory.params.Predictor; b == LinearPredictor() {
		a.nfc.w.window = a.factory.params.Window
		a.pred = &a.nfc
	} else {
		a.pred = b.New(a.factory.params.Window)
	}
	a.pred.Init(env.Now(), a.primary().Len())
}

// neighbors is the cell's sorted interference list, IN_i.
func (a *Adaptive) neighbors() []hexgrid.CellID { return a.factory.grid.Interference(a.cell) }

// primary is PR_i; it aliases the assignment and is read-only.
func (a *Adaptive) primary() chanset.Set { return a.factory.assign.Primary[a.cell] }

// block returns the borrowing block, allocating it on the first store.
func (a *Adaptive) block() *borrowing {
	if a.blk == nil {
		a.blk = &borrowing{u: make([]uint64, len(a.neighbors())*int(a.w))}
	}
	return a.blk
}

// Warm reports whether the station holds a borrowing block.
func (a *Adaptive) Warm() bool { return a.blk != nil }

// words returns the words of one channel set of the slab, capped so a
// stray grow can never run into the next set.
func (a *Adaptive) words(set int) []uint64 {
	off, w := int(a.setOff)+set*int(a.w), int(a.w)
	return a.slab[off : off+w : off+w]
}

// view wraps one channel set of the slab as a chanset.Set. The view is
// live: it reads and writes the slab.
func (a *Adaptive) view(set int) chanset.Set { return chanset.FromWords(a.words(set)) }

// bit locates channel ch of a set: the slab index of its word and its
// mask within it. ch must be a channel of the spectrum.
func (a *Adaptive) bit(set int, ch chanset.Channel) (int, uint64) {
	return int(a.setOff) + set*int(a.w) + int(ch>>6), 1 << (uint(ch) & 63)
}

// has reports whether ch (of the spectrum, or NoChannel) is in the set.
func (a *Adaptive) has(set int, ch chanset.Channel) bool {
	if ch < 0 {
		return false
	}
	i, m := a.bit(set, ch)
	return a.slab[i]&m != 0
}

// add inserts ch into the set; NoChannel is a no-op.
func (a *Adaptive) add(set int, ch chanset.Channel) {
	if ch >= 0 {
		i, m := a.bit(set, ch)
		a.slab[i] |= m
	}
}

// remove deletes ch from the set; NoChannel is a no-op.
func (a *Adaptive) remove(set int, ch chanset.Channel) {
	if ch >= 0 {
		i, m := a.bit(set, ch)
		a.slab[i] &^= m
	}
}

// mask returns one of the slab's neighbor masks.
func (a *Adaptive) mask(which int) []uint64 {
	mw := int(a.setOff) / numMasks
	return a.slab[which*mw : (which+1)*mw]
}

// maskBit locates neighbor index k in a mask: its word and its bit.
func (a *Adaptive) maskBit(which, k int) (*uint64, uint64) {
	return &a.mask(which)[k>>6], 1 << (uint(k) & 63)
}

// inMask reports whether neighbor index k is in the mask.
func (a *Adaptive) inMask(which, k int) bool {
	word, bit := a.maskBit(which, k)
	return *word&bit != 0
}

// nbrIdx returns j's index in the sorted interference list, or -1 when
// j is not a neighbor of this cell (hexgrid.Grid.Slot).
func (a *Adaptive) nbrIdx(j hexgrid.CellID) int { return a.factory.grid.Slot(a.cell, j) }

// InUse implements alloc.Allocator.
func (a *Adaptive) InUse() chanset.Set { return a.view(setUse) }

// Mode implements alloc.Allocator.
func (a *Adaptive) Mode() int { return int(a.mode) }

// ProtocolCounters implements alloc.CounterProvider.
func (a *Adaptive) ProtocolCounters() alloc.Counters { return a.counters }

// Tally implements alloc.Tallier. What Counters lacks is derived from
// state the station holds anyway, not stored: every update round ends in
// an update grant or a rejection, every search round in a search grant
// or a drop, and only the request in flight may still be in one; a
// station starts local and its mode changes alternate direction.
func (a *Adaptive) Tally() alloc.Tally {
	c := a.counters
	t := alloc.Tally{Counters: c, ToBorrowing: (c.ModeChanges + 1) / 2, ToLocal: c.ModeChanges / 2}
	var updating, searching uint64
	if a.req != nil {
		switch a.req.ph {
		case phaseGrants:
			updating = 1
		case phaseSearch:
			searching = 1
		}
	}
	t.Rejected = c.UpdateAttempts - c.GrantsUpdate - updating
	t.Searches = c.GrantsSearch + c.Drops + searching
	if a.blk != nil {
		t.DeferDepth = uint64(len(a.blk.deferQ))
	}
	return t
}

// Primary returns PR_i (for tests).
func (a *Adaptive) Primary() chanset.Set { return a.primary().Clone() }

// free returns PR_i − (Use_i ∪ I_i): the free primary channels in this
// cell's view. The result is a view of the slab's scratch set and is
// valid only until the next freePrimary/freeAnywhere call (every call
// site consumes it immediately; checkMode refills it, so don't hold it
// across one).
func (a *Adaptive) freePrimary() chanset.Set {
	return a.freeFrom(a.primary())
}

// freeAnywhere returns Spectrum − Use_i − I_i, in the scratch set like
// freePrimary.
func (a *Adaptive) freeAnywhere() chanset.Set {
	return a.freeFrom(a.factory.assign.Spectrum)
}

func (a *Adaptive) freeFrom(base chanset.Set) chanset.Set {
	b := base.Words() // w words, like every set of the assignment
	use, inter, out := a.words(setUse), a.words(setInter), a.words(setScratch)
	for i := range out {
		out[i] = b[i] &^ (use[i] | inter[i])
	}
	return chanset.FromWords(out)
}

// uBit locates channel ch of U_j for j = neighbors()[k] in the block:
// the index of its word and its mask within it.
func (a *Adaptive) uBit(k int, ch chanset.Channel) (int, uint64) {
	return k*int(a.w) + int(ch>>6), 1 << (uint(ch) & 63)
}

// hasU reports whether neighbors()[k] is believed to use ch (of the
// spectrum, or NoChannel); false on a cold station.
func (a *Adaptive) hasU(k int, ch chanset.Channel) bool {
	if a.blk == nil || ch < 0 {
		return false
	}
	i, m := a.uBit(k, ch)
	return a.blk.u[i]&m != 0
}

// addU records that neighbors()[k] uses channel ch; NoChannel is a no-op.
func (a *Adaptive) addU(k int, ch chanset.Channel) {
	if ch >= 0 {
		i, m := a.uBit(k, ch)
		a.block().u[i] |= m
		a.add(setInter, ch)
	}
}

// removeU records that neighbors()[k] no longer uses channel ch.
func (a *Adaptive) removeU(k int, ch chanset.Channel) {
	if !a.hasU(k, ch) {
		return
	}
	i, m := a.uBit(k, ch)
	a.blk.u[i] &^= m
	a.refreshInter(int(ch >> 6))
}

// refreshInter recomputes word wi of I_i as the union of that word over
// every U_j: a channel stays interfered while any neighbor is believed
// to use it, which the OR answers without a per-channel count.
func (a *Adaptive) refreshInter(wi int) {
	var or uint64
	if a.blk != nil {
		u, w := a.blk.u, int(a.w)
		for i := wi; i < len(u); i += w {
			or |= u[i]
		}
	}
	a.slab[int(a.setOff)+setInter*int(a.w)+wi] = or
}

// grant is one entry of the grant ledger: ch is granted to neighbors()[k].
type grant struct {
	k  int32
	ch chanset.Channel
}

// granted returns the ledger index of (k, ch), or -1. A pending grant is
// always in U_j too — every record is followed by addU, a snapshot ORs
// the pending ones back in — so one bit test spares most scans.
func (a *Adaptive) granted(k int, ch chanset.Channel) int {
	if !a.hasU(k, ch) {
		return -1
	}
	return slices.Index(a.blk.grants, grant{int32(k), ch})
}

// grantRecord marks ch as granted to neighbors()[k], pending
// acquisition; NoChannel is a no-op.
func (a *Adaptive) grantRecord(k int, ch chanset.Channel) {
	if ch >= 0 && a.granted(k, ch) < 0 {
		b := a.block()
		b.grants = a.factory.grantArrays.add(b.grants, grant{int32(k), ch})
	}
}

// grantResolve clears a pending grant record: neighbors()[k] either
// acquired ch visibly (snapshot/ACQUISITION) or released it.
func (a *Adaptive) grantResolve(k int, ch chanset.Channel) {
	if i := a.granted(k, ch); i >= 0 {
		g := a.blk.grants
		last := len(g) - 1
		g[i] = g[last]
		a.blk.grants = g[:last]
	}
}

// replaceU replaces the whole U_j of neighbors()[k] with the received
// snapshot, preserving channels we granted to j that j has not yet
// visibly acquired: channels now visible in the snapshot are owned by j
// and leave the ledger (the snapshot stream governs them from here on);
// still-pending grants are unioned into the effective snapshot. On a
// cold station an empty snapshot changes nothing.
func (a *Adaptive) replaceU(k int, snapshot chanset.Set) {
	if a.blk == nil && snapshot.Empty() {
		return
	}
	b := a.block()
	kept := b.grants[:0]
	for _, g := range b.grants {
		if int(g.k) != k || !snapshot.Contains(g.ch) {
			kept = append(kept, g)
		}
	}
	b.grants = kept
	snap := snapshot.Words() // at most w words: Handle checked
	off, w := k*int(a.w), int(a.w)
	u := b.u[off : off+w : off+w]
	for wi := range u {
		var next uint64
		if wi < len(snap) {
			next = snap[wi]
		}
		for _, g := range kept {
			if int(g.k) == k && int(g.ch>>6) == wi {
				next |= 1 << (uint(g.ch) & 63)
			}
		}
		if next != u[wi] {
			u[wi] = next
			a.refreshInter(wi)
		}
	}
}

// checkMode is the paper's check_mode() (Figure 6): it feeds the
// current free-primary count to the predictor, asks for the count one
// round trip (2T) ahead, and switches modes across the θ_l / θ_h
// hysteresis band. The default predictor is the paper's windowed linear
// NFC extrapolation; see policy.go for the seam. Transitions out of
// borrowing are suppressed while a request is in flight (DESIGN.md D2).
func (a *Adaptive) checkMode() {
	s := a.freePrimary().Len()
	now := a.env.Now()
	a.pred.Observe(now, s)
	next := a.pred.Predict(now, s, 2*a.env.Latency())
	p := &a.factory.params
	switch {
	case a.mode == ModeLocal && next < p.ThetaLow:
		a.mode = ModeBorrow
		a.counters.ModeChanges++
		a.modeEvent(ModeLocal, ModeBorrow, next)
		alloc.Broadcast(a.env, message.Message{Kind: message.ChangeMode, From: a.cell, Mode: message.ModeBorrowing})
	case a.mode == ModeBorrow && next >= p.ThetaHigh && a.req == nil:
		a.mode = ModeLocal
		a.counters.ModeChanges++
		a.modeEvent(ModeBorrow, ModeLocal, next)
		alloc.Broadcast(a.env, message.Message{Kind: message.ChangeMode, From: a.cell, Mode: message.ModeLocal})
	}
}

// modeEvent journals one hysteresis transition: a "mode" record carrying
// the old and new mode and the NFC predictor value that drove the switch.
func (a *Adaptive) modeEvent(from, to int32, pred float64) {
	if a.factory.Journal != nil {
		a.factory.Journal.Emit(int64(a.env.Now()), "mode", int(a.cell),
			obs.FI("old", int64(from)), obs.FI("new", int64(to)), obs.F("pred", pred))
	}
}
