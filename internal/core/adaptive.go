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
	"fmt"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/lamport"
	"repro/internal/message"
	"repro/internal/obs"
	"repro/internal/sim"
)

// LenderPolicy selects how a borrowing cell picks the neighbor to
// borrow from. The paper's Best() heuristic (Figure 10) minimizes the
// number of borrowing neighbors shared with the lender to reduce
// collision probability; the alternatives exist for the ablation that
// quantifies that claim.
type LenderPolicy int

const (
	// LenderBest is the paper's Figure 10 heuristic (default).
	LenderBest LenderPolicy = iota
	// LenderFirst picks the lowest-id eligible lender.
	LenderFirst
	// LenderRandom picks a uniformly random eligible lender.
	LenderRandom
)

// String implements fmt.Stringer.
func (p LenderPolicy) String() string {
	switch p {
	case LenderBest:
		return "best"
	case LenderFirst:
		return "first"
	case LenderRandom:
		return "random"
	default:
		return fmt.Sprintf("LenderPolicy(%d)", int(p))
	}
}

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
	// Lender selects the lender-choice heuristic (default: the paper's
	// Best() of Figure 10).
	Lender LenderPolicy
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
	// Strategy overrides lender selection on the borrow path (nil: the
	// policy named by Lender — the paper's Best() by default).
	Strategy LenderStrategy
}

// Tuning returns p with the policy objects cleared: the scalar
// parameter subset. Callers use it to detect "no tuning set" without
// being confused by a policy-only override.
func (p Params) Tuning() Params {
	p.Predictor, p.Strategy = nil, nil
	return p
}

// predictorBuilder resolves the NFC predictor in effect.
func (p Params) predictorBuilder() PredictorBuilder {
	if p.Predictor != nil {
		return p.Predictor
	}
	return LinearPredictor()
}

// lenderStrategy resolves the lender strategy in effect: the Strategy
// override if set, else the legacy LenderPolicy enum.
func (p Params) lenderStrategy() LenderStrategy {
	if p.Strategy != nil {
		return p.Strategy
	}
	switch p.Lender {
	case LenderFirst:
		return FirstLender()
	case LenderRandom:
		return RandomLender()
	default:
		return BestLender()
	}
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
	if p.Lender < LenderBest || p.Lender > LenderRandom {
		return fmt.Errorf("core: unknown lender policy %d", p.Lender)
	}
	return nil
}

// Factory builds adaptive allocators for a given grid and primary plan.
type Factory struct {
	grid   *hexgrid.Grid
	assign *chanset.Assignment
	params Params
	obs    *obs.Protocol
}

// NewFactory validates params and returns a Factory.
func NewFactory(grid *hexgrid.Grid, assign *chanset.Assignment, params Params) (*Factory, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Factory{grid: grid, assign: assign, params: params}, nil
}

// Name implements alloc.Factory.
func (f *Factory) Name() string { return "adaptive" }

// Instrument binds every allocator this factory creates from now on to
// the given instrument bundle. A nil bundle (the default) keeps the
// protocol core fully uninstrumented — the zero-value obs.Protocol's
// nil instruments are allocation-free no-ops, so hot paths pay only a
// nil check. Instruments observe the protocol; they never feed back
// into its decisions, so enabling them cannot perturb DES determinism.
func (f *Factory) Instrument(p *obs.Protocol) { f.obs = p }

// New implements alloc.Factory.
func (f *Factory) New(cell hexgrid.CellID) alloc.Allocator {
	a := &Adaptive{
		factory: f,
		cell:    cell,
	}
	if f.obs != nil {
		a.obs = *f.obs
	}
	return a
}

// Mode values of the paper (the mode_i variable).
const (
	ModeLocal        = 0 // local allocation only
	ModeBorrow       = 1 // borrowing, no request in flight
	ModeBorrowUpdate = 2 // borrowing, update request pending
	ModeBorrowSearch = 3 // borrowing, search request pending
)

// deferred is one entry of DeferQ_i.
type deferred struct {
	search bool // true: search request; false: update request
	ch     chanset.Channel
	ts     lamport.Stamp
	from   hexgrid.CellID
}

// Adaptive is one cell's adaptive allocator.
//
// Per-neighbor knowledge (U_j, UpdateS_i, grant records, response
// collection) is stored in neighbor-index order over the cell's sorted
// interference list rather than in maps keyed by cell id: a map entry
// costs ~50 bytes of bucket overhead per neighbor per cell, which at
// 10^6 cells × 18 neighbors dominates steady-state memory, while a
// binary search over ≤ 18 sorted ids costs a handful of compares on
// paths that were already doing a hash. Cold state (grant records,
// lender-candidate scratch) materializes lazily on first use.
type Adaptive struct {
	factory *Factory
	cell    hexgrid.CellID

	env       alloc.Env
	neighbors []hexgrid.CellID
	spectrum  chanset.Set
	pr        chanset.Set
	clock     lamport.Clock

	// Use_i and per-neighbor knowledge.
	use chanset.Set
	// u[k] is U_j for j = neighbors[k], all windowed into one flat
	// backing array (two allocations per cell, not one per neighbor).
	u     []chanset.Set
	iCnt  []int16 // per-channel count of neighbors believed to use it
	inter chanset.Set // I_i: bit set iff iCnt > 0
	// granted[k] holds channels we granted to neighbors[k] that it has
	// not yet visibly acquired or released. A borrowing-update winner
	// acquires silently (Figure 3, mode 2), so a Use-set snapshot taken
	// by j between our grant and its acquisition would otherwise erase
	// the channel from U_j and let us reuse it concurrently (DESIGN.md
	// D9). nil until the cell first grants anything.
	granted []chanset.Set

	mode    int
	updateS []bool // UpdateS_i, by neighbor index
	// updateSMask mirrors updateS as a bitmask over neighbor indices
	// whenever the neighborhood fits in one word (reuse distance 2 has
	// 18 interior neighbors; updates to indices >= 64 are skipped and
	// the mask goes unused). nbrMasks[k] — built lazily with candSets —
	// marks which of this cell's neighbors also interfere with
	// neighbors[k], so best() counts |UpdateS_i ∩ IN_j| with one
	// AND+popcount instead of a binary search per member of IN_j, the
	// dominant cost of candidate gathering under steady borrow load.
	updateSMask uint64
	nbrMasks    []uint64
	deferQ      []deferred
	// deferSpare recycles the drained defer queue's backing array:
	// under borrow pressure a hot cell defers and drains continuously,
	// and reallocating the queue on every cycle showed up as churn.
	deferSpare []deferred
	waiting    int
	pending    bool
	rounds     int

	// pred forecasts the free-primary count for check_mode; strategy
	// ranks lenders in best(). Both default to the paper's policies
	// (policy.go) and are fixed at Start.
	pred     Predictor
	strategy LenderStrategy
	// cands and candSets back best()'s candidate list so building it
	// stays allocation-free: one reusable LenderCandidate slot and one
	// reusable free-primaries set per interference neighbor. candSets
	// materializes on the first borrow attempt — cells that never
	// borrow never pay for it.
	cands    []LenderCandidate
	candSets []chanset.Set

	serial alloc.Serial
	req    *request // active request FSM, nil when idle
	// reqBuf backs req: one request is in flight at a time, so the FSM
	// state is reused across requests instead of allocated per request.
	reqBuf request
	// await/awaitN track which neighbors the active request phase still
	// needs a response from (by neighbor index). One phase collects at a
	// time, so the mask is shared across phases and requests.
	await  []bool
	awaitN int
	// scratch holds the result of freePrimary/freeAnywhere; reusing one
	// buffer keeps those per-dispatch set computations allocation-free.
	scratch chanset.Set

	counters alloc.Counters
	obs      obs.Protocol // zero value: disabled (nil instruments no-op)
}

// Start implements alloc.Allocator.
func (a *Adaptive) Start(env alloc.Env) {
	a.env = env
	a.neighbors = env.Neighbors()
	a.spectrum = a.factory.assign.Spectrum
	a.pr = a.factory.assign.Primary[a.cell]
	a.clock = *lamport.NewClock(int32(a.cell))
	n := a.factory.assign.NumChannels
	a.use = chanset.NewSet(n)
	a.u = a.neighborSets()
	a.iCnt = make([]int16, n)
	a.inter = chanset.NewSet(n)
	a.scratch = chanset.NewSet(n)
	a.updateS = make([]bool, len(a.neighbors))
	a.await = make([]bool, len(a.neighbors))
	a.pred = a.factory.params.predictorBuilder().New(a.factory.params.Window)
	a.pred.Init(env.Now(), a.pr.Len())
	a.strategy = a.factory.params.lenderStrategy()
	a.serial.SetStart(a.startRequest)
}

// neighborSets returns one zeroed channel set per interference
// neighbor, all windowed (capacity-capped) into a single flat backing
// array: two allocations total instead of one per neighbor.
func (a *Adaptive) neighborSets() []chanset.Set {
	w := (a.factory.assign.NumChannels + 63) / 64
	back := make([]uint64, w*len(a.neighbors))
	sets := make([]chanset.Set, len(a.neighbors))
	for i := range sets {
		sets[i] = chanset.FromWords(back[i*w : (i+1)*w : (i+1)*w])
	}
	return sets
}

// nbrIdx returns j's index in the sorted interference list, or -1 when
// j is not a neighbor of this cell.
func (a *Adaptive) nbrIdx(j hexgrid.CellID) int {
	lo, hi := 0, len(a.neighbors)
	for lo < hi {
		mid := (lo + hi) / 2
		if a.neighbors[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(a.neighbors) && a.neighbors[lo] == j {
		return lo
	}
	return -1
}

// isUpdateS reports whether j is known to be in borrowing mode
// (UpdateS_i membership); false for non-neighbors.
func (a *Adaptive) isUpdateS(j hexgrid.CellID) bool {
	idx := a.nbrIdx(j)
	return idx >= 0 && a.updateS[idx]
}

// Request implements alloc.Allocator.
func (a *Adaptive) Request(id alloc.RequestID) { a.serial.Submit(id) }

// InUse implements alloc.Allocator.
func (a *Adaptive) InUse() chanset.Set { return a.use }

// Mode implements alloc.Allocator.
func (a *Adaptive) Mode() int { return a.mode }

// ProtocolCounters implements alloc.CounterProvider.
func (a *Adaptive) ProtocolCounters() alloc.Counters { return a.counters }

// Primary returns PR_i (for tests).
func (a *Adaptive) Primary() chanset.Set { return a.pr.Clone() }

// Waiting exposes waiting_i (for tests).
func (a *Adaptive) Waiting() int { return a.waiting }

// free returns PR_i − (Use_i ∪ I_i): the free primary channels in this
// cell's view. The result aliases a.scratch and is valid only until the
// next freePrimary/freeAnywhere call (every call site consumes it
// immediately; checkMode refills it, so don't hold it across one).
func (a *Adaptive) freePrimary() chanset.Set {
	return a.freeFrom(a.pr)
}

// freeAnywhere returns Spectrum − Use_i − I_i, aliasing a.scratch like
// freePrimary.
func (a *Adaptive) freeAnywhere() chanset.Set {
	return a.freeFrom(a.spectrum)
}

func (a *Adaptive) freeFrom(base chanset.Set) chanset.Set {
	a.scratch.Clear()
	a.scratch.UnionWith(base)
	a.scratch.SubtractWith(a.use)
	a.scratch.SubtractWith(a.inter)
	return a.scratch
}

// addU records that neighbor j uses channel ch.
func (a *Adaptive) addU(j hexgrid.CellID, ch chanset.Channel) {
	if !ch.Valid() {
		return
	}
	idx := a.nbrIdx(j)
	if idx < 0 || a.u[idx].Contains(ch) {
		return
	}
	a.u[idx].Add(ch)
	a.iCnt[ch]++
	a.inter.Add(ch)
}

// removeU records that neighbor j no longer uses channel ch.
func (a *Adaptive) removeU(j hexgrid.CellID, ch chanset.Channel) {
	idx := a.nbrIdx(j)
	if idx < 0 || !a.u[idx].Contains(ch) {
		return
	}
	a.u[idx].Remove(ch)
	a.iCnt[ch]--
	if a.iCnt[ch] <= 0 {
		a.iCnt[ch] = 0
		a.inter.Remove(ch)
	}
}

// grantRecord marks ch as granted to j (pending acquisition),
// materializing the per-neighbor grant sets on the cell's first grant.
func (a *Adaptive) grantRecord(j hexgrid.CellID, ch chanset.Channel) {
	idx := a.nbrIdx(j)
	if idx < 0 {
		return // requests only arrive from neighbors
	}
	if a.granted == nil {
		a.granted = a.neighborSets()
	}
	a.granted[idx].Add(ch)
}

// grantedOf returns the grant-record set for neighbor index idx; the
// zero (empty) set when the cell has never granted anything.
func (a *Adaptive) grantedOf(idx int) chanset.Set {
	if a.granted == nil {
		return chanset.Set{}
	}
	return a.granted[idx]
}

// grantResolve clears a pending grant record: j either acquired ch
// visibly (snapshot/ACQUISITION) or released it.
func (a *Adaptive) grantResolve(j hexgrid.CellID, ch chanset.Channel) {
	if a.granted == nil {
		return
	}
	if idx := a.nbrIdx(j); idx >= 0 {
		a.granted[idx].Remove(ch)
	}
}

// replaceU replaces the whole U_j with the received snapshot, preserving
// channels we granted to j that j has not yet visibly acquired.
func (a *Adaptive) replaceU(j hexgrid.CellID, snapshot chanset.Set) {
	idx := a.nbrIdx(j)
	if idx < 0 {
		return // not an interference neighbor; ignore
	}
	old := a.u[idx]
	if g := a.grantedOf(idx); !g.Empty() {
		// Channels now visible in j's snapshot are owned by j; the
		// snapshot stream governs them from here on. grantResolve removes
		// the current channel from g, which the Next cursor permits.
		for ch := g.First(); ch.Valid(); ch = g.Next(ch) {
			if snapshot.Contains(ch) {
				a.grantResolve(j, ch)
			}
		}
		// Still-pending grants are unioned into the effective snapshot.
		snapshot = chanset.Union(snapshot, g)
	}
	// removeU deletes the current channel from old (= a.u[j]) while the
	// cursor walks it — safe: Next only scans bits above the cursor.
	for ch := old.First(); ch.Valid(); ch = old.Next(ch) {
		if !snapshot.Contains(ch) {
			a.removeU(j, ch)
		}
	}
	for ch := snapshot.First(); ch.Valid(); ch = snapshot.Next(ch) {
		a.addU(j, ch)
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
	p := a.factory.params
	switch {
	case a.mode == ModeLocal && next < p.ThetaLow:
		a.mode = ModeBorrow
		a.counters.ModeChanges++
		a.modeEvent(ModeLocal, ModeBorrow, next)
		alloc.Broadcast(a.env, message.Message{
			Kind: message.ChangeMode, From: a.cell, Mode: message.ModeBorrowing,
		}, a.neighbors)
	case a.mode == ModeBorrow && next >= p.ThetaHigh && a.req == nil:
		a.mode = ModeLocal
		a.counters.ModeChanges++
		a.modeEvent(ModeBorrow, ModeLocal, next)
		alloc.Broadcast(a.env, message.Message{
			Kind: message.ChangeMode, From: a.cell, Mode: message.ModeLocal,
		}, a.neighbors)
	}
}

// modeEvent instruments one hysteresis transition: the labeled
// transition counter plus a "mode" journal record carrying the old and
// new mode and the NFC predictor value that drove the switch.
func (a *Adaptive) modeEvent(from, to int, pred float64) {
	if to == ModeBorrow {
		a.obs.ModeToBorrowing.Inc()
	} else {
		a.obs.ModeToLocal.Inc()
	}
	if a.obs.Journal != nil {
		a.obs.Journal.Emit(int64(a.env.Now()), "mode", int(a.cell),
			obs.FI("old", int64(from)), obs.FI("new", int64(to)), obs.F("pred", pred))
	}
}
