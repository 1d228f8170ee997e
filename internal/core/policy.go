package core

// The policy seam of the adaptive scheme. The paper hard-codes two
// decisions that the related work treats as swappable policies:
//
//   - check_mode()'s predictor: the windowed linear NFC extrapolation
//     (nfc.go) that drives the local/borrowing hysteresis, and
//   - Best()'s lender choice (Figure 10): which neighbor a borrowing
//     cell asks for a channel.
//
// Predictor and LenderStrategy turn both into interfaces. The paper's
// implementations are the defaults and reproduce the original
// trajectories bit for bit; the competitors (EWMA and damped-trend
// predictors per arXiv 1309.7439's learning-based hybrid allocation,
// interference-aware and reused-frequency lender selection per arXiv
// 1810.02542 / 1510.03973) plug into the same seam. Named construction
// lives in internal/policy, mirroring internal/registry for schemes.
//
// Determinism contract: implementations must be pure functions of their
// observed inputs (plus the cell's private RNG stream passed to Choose)
// so trajectories stay invariant across worker and shard counts. They
// must not allocate on the hot path; per-cell state is fine — every
// allocator gets its own Predictor instance.

import (
	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/sim"
)

// Predictor forecasts a cell's free-primary-channel count. check_mode
// feeds it one sample per invocation (virtual time is nondecreasing
// across calls, and several samples may share a timestamp) and then asks
// for the count expected `horizon` ticks ahead; the prediction is
// compared against the θ_l/θ_h hysteresis band.
type Predictor interface {
	// Init seeds the predictor with the count in effect at start time t0.
	// Called exactly once, before any Observe/Predict.
	Init(t0 sim.Time, count int)
	// Observe records the free-primary count at time t.
	Observe(t sim.Time, count int)
	// Predict extrapolates the count at now+horizon; count is the
	// current value (always equal to the sample just observed).
	Predict(now sim.Time, count int, horizon sim.Time) float64
}

// PredictorBuilder makes one Predictor per cell. The builder carries the
// policy's own tuning; the paper's window W is injected by the core so
// every predictor sees the same effective history horizon.
type PredictorBuilder interface {
	// Name identifies the predictor in reports and registries.
	Name() string
	// New returns a fresh per-cell instance.
	New(window sim.Time) Predictor
}

// LenderCandidate is one eligible lender as seen by the borrower when
// the borrow path runs: a non-borrowing interference neighbor that owns
// at least one primary channel free in the borrower's view.
type LenderCandidate struct {
	// Cell is the candidate's id. Candidates are listed in ascending
	// cell order (the deterministic neighbor order).
	Cell hexgrid.CellID
	// FreePrimaries is the candidate's primary channels currently free
	// in the borrower's view (never empty). The set aliases scratch
	// storage owned by the borrower and is valid only during Choose.
	FreePrimaries chanset.Set
	// FreeCount is FreePrimaries.Len(), precomputed.
	FreeCount int
	// LowestFree is the smallest channel id in FreePrimaries — the
	// channel pickBorrow would take from this candidate.
	LowestFree chanset.Channel
	// SharedBorrowers is |UpdateS_i ∩ IN_j|: how many cells in the
	// candidate's interference region the borrower believes to be in
	// borrowing mode (the paper's Figure 10 criterion).
	SharedBorrowers int
}

// LenderStrategy ranks the eligible lenders of one borrow attempt.
// Implementations must be stateless (one instance is shared by every
// cell) and deterministic given the candidate list and the RNG stream.
type LenderStrategy interface {
	// Name identifies the strategy in reports and registries.
	Name() string
	// Choose returns the index of the selected candidate (the list is
	// never empty). Returning an out-of-range index skips the
	// borrowing-update attempt and falls through to a borrowing search.
	Choose(cands []LenderCandidate, rng *sim.Rand) int
}

// ---------------------------------------------------------------------
// Predictors
// ---------------------------------------------------------------------

// linearPredictor is the paper's check_mode predictor: the windowed
// linear extrapolation over the NFC_i sample list (nfc.go). It is the
// default and reproduces the pre-seam trajectories exactly.
type linearPredictor struct {
	w nfcWindow // w.window is set at construction
}

type linearBuilder struct{}

// LinearPredictor returns the paper's windowed linear NFC predictor
// (the default): next = s + horizon·(s − get_nfc(now−W))/W.
func LinearPredictor() PredictorBuilder { return linearBuilder{} }

func (linearBuilder) Name() string { return "linear" }
func (linearBuilder) New(window sim.Time) Predictor {
	return &linearPredictor{w: nfcWindow{window: window}}
}

func (p *linearPredictor) Init(t0 sim.Time, count int)   { p.w.init(t0, count, p.w.window) }
func (p *linearPredictor) Observe(t sim.Time, count int) { p.w.add(t, count) }
func (p *linearPredictor) Predict(now sim.Time, count int, horizon sim.Time) float64 {
	return p.w.predict(now, count, horizon)
}

// ewmaPredictor smooths the free-primary count with an exponentially
// weighted moving average and predicts the smoothed level. Heavier
// smoothing (small alpha) filters the borrow/return chatter the linear
// extrapolation amplifies, at the price of reacting later to genuine
// load shifts (the learning-flavored half of arXiv 1309.7439's hybrid).
type ewmaPredictor struct {
	alpha float64
	level float64
}

type ewmaBuilder struct{ alpha float64 }

// EWMAPredictor returns an EWMA predictor with smoothing factor alpha
// in (0, 1]: level += alpha·(sample − level); Predict returns the level.
func EWMAPredictor(alpha float64) PredictorBuilder { return ewmaBuilder{alpha: alpha} }

func (b ewmaBuilder) Name() string                  { return "ewma" }
func (b ewmaBuilder) New(sim.Time) Predictor        { return &ewmaPredictor{alpha: b.alpha} }
func (p *ewmaPredictor) Init(_ sim.Time, count int) { p.level = float64(count) }
func (p *ewmaPredictor) Observe(_ sim.Time, count int) {
	p.level += p.alpha * (float64(count) - p.level)
}
func (p *ewmaPredictor) Predict(sim.Time, int, sim.Time) float64 { return p.level }

// dampedTrendPredictor is Holt's double exponential smoothing with a
// damped trend: a level/slope decomposition whose forecast grows only
// phi-fraction of the fitted slope per tick. It tracks genuine drains
// (a filling hot spot) faster than the EWMA while refusing to
// extrapolate transient spikes as aggressively as the paper's linear
// rule — the trend-damped competitor of the predictor lab.
type dampedTrendPredictor struct {
	alpha, beta, phi float64

	level, trend float64 // trend is per tick
	last         sim.Time
	started      bool
}

type dampedBuilder struct{ alpha, beta, phi float64 }

// DampedTrendPredictor returns a damped Holt predictor: alpha smooths
// the level, beta the per-tick trend, and phi in [0, 1] damps the
// trend's contribution to the forecast (phi = 0 degenerates to an EWMA,
// phi = 1 to undamped Holt).
func DampedTrendPredictor(alpha, beta, phi float64) PredictorBuilder {
	return dampedBuilder{alpha: alpha, beta: beta, phi: phi}
}

func (b dampedBuilder) Name() string { return "damped-trend" }
func (b dampedBuilder) New(sim.Time) Predictor {
	return &dampedTrendPredictor{alpha: b.alpha, beta: b.beta, phi: b.phi}
}

func (p *dampedTrendPredictor) Init(t0 sim.Time, count int) {
	p.level, p.trend, p.last, p.started = float64(count), 0, t0, true
}

func (p *dampedTrendPredictor) Observe(t sim.Time, count int) {
	s := float64(count)
	dt := float64(t - p.last)
	if dt <= 0 {
		// Same-tick resample: refresh the level, leave the trend alone
		// (a zero time step carries no slope information).
		p.level += p.alpha * (s - p.level)
		return
	}
	prev := p.level
	p.level = p.alpha*s + (1-p.alpha)*(p.level+p.trend*dt)
	p.trend = p.beta*(p.level-prev)/dt + (1-p.beta)*p.trend
	p.last = t
}

func (p *dampedTrendPredictor) Predict(_ sim.Time, _ int, horizon sim.Time) float64 {
	return p.level + p.phi*p.trend*float64(horizon)
}

// lastValuePredictor is the persistence baseline: the forecast is the
// current count, untouched. It turns the hysteresis band into a plain
// threshold on the instantaneous free-primary count — the control every
// smarter predictor has to beat.
type lastValuePredictor struct{}

type lastValueBuilder struct{}

// LastValuePredictor returns the persistence (naive) predictor:
// Predict(now, s, h) = s.
func LastValuePredictor() PredictorBuilder { return lastValueBuilder{} }

func (lastValueBuilder) Name() string            { return "last-value" }
func (lastValueBuilder) New(sim.Time) Predictor  { return lastValuePredictor{} }
func (lastValuePredictor) Init(sim.Time, int)    {}
func (lastValuePredictor) Observe(sim.Time, int) {}
func (lastValuePredictor) Predict(_ sim.Time, count int, _ sim.Time) float64 {
	return float64(count)
}

// ---------------------------------------------------------------------
// Lender strategies
// ---------------------------------------------------------------------

// bestLender is the paper's Best() heuristic (Figure 10): minimize the
// number of borrowing neighbors shared with the lender; ties break on
// the lowest cell id (candidate order). The default.
type bestLender struct{}

// BestLender returns the paper's Figure 10 lender heuristic.
func BestLender() LenderStrategy { return bestLender{} }

func (bestLender) Name() string { return "best" }
func (bestLender) Choose(cands []LenderCandidate, _ *sim.Rand) int {
	idx, minBN := 0, cands[0].SharedBorrowers
	for i := 1; i < len(cands); i++ {
		if cands[i].SharedBorrowers < minBN {
			idx, minBN = i, cands[i].SharedBorrowers
		}
	}
	return idx
}

// firstLender picks the lowest-id eligible lender (ablation control).
type firstLender struct{}

// FirstLender returns the lowest-id lender strategy.
func FirstLender() LenderStrategy { return firstLender{} }

func (firstLender) Name() string                            { return "first" }
func (firstLender) Choose([]LenderCandidate, *sim.Rand) int { return 0 }

// randomLender picks a uniformly random eligible lender from the cell's
// private stream (ablation control; deterministic per seed).
type randomLender struct{}

// RandomLender returns the uniform-random lender strategy.
func RandomLender() LenderStrategy { return randomLender{} }

func (randomLender) Name() string { return "random" }
func (randomLender) Choose(cands []LenderCandidate, rng *sim.Rand) int {
	return rng.Intn(len(cands))
}

// interferenceAwareLender borrows from the lender with the most spare
// primaries (ties: fewest shared borrowers, then lowest id). A rich
// lender is the least likely to need the channel back or to decline —
// the declination-avoidance criterion of arXiv 1810.02542 — so the
// borrowed channel locks the smallest fraction of anyone's headroom.
type interferenceAwareLender struct{}

// InterferenceAwareLender returns the spare-capacity-seeking strategy.
func InterferenceAwareLender() LenderStrategy { return interferenceAwareLender{} }

func (interferenceAwareLender) Name() string { return "interference-aware" }
func (interferenceAwareLender) Choose(cands []LenderCandidate, _ *sim.Rand) int {
	idx := 0
	for i := 1; i < len(cands); i++ {
		c, b := cands[i], cands[idx]
		if c.FreeCount > b.FreeCount ||
			(c.FreeCount == b.FreeCount && c.SharedBorrowers < b.SharedBorrowers) {
			idx = i
		}
	}
	return idx
}

// reusedFrequencyLender borrows the lowest-numbered channel on offer
// (ties: lowest id). Since every borrower shares the bias, borrow churn
// concentrates on a stable low-numbered slice of the spectrum and the
// high-numbered primaries stay clean for local allocation — the
// reused-frequency borrowing bias of arXiv 1510.03973.
type reusedFrequencyLender struct{}

// ReusedFrequencyLender returns the lowest-channel-first strategy.
func ReusedFrequencyLender() LenderStrategy { return reusedFrequencyLender{} }

func (reusedFrequencyLender) Name() string { return "reused-frequency" }
func (reusedFrequencyLender) Choose(cands []LenderCandidate, _ *sim.Rand) int {
	idx := 0
	for i := 1; i < len(cands); i++ {
		if cands[i].LowestFree < cands[idx].LowestFree {
			idx = i
		}
	}
	return idx
}
