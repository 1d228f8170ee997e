package traffic

import (
	"fmt"

	"repro/internal/sim"
)

// Spec describes one workload run.
type Spec struct {
	// Profile gives per-cell arrival rates.
	Profile Profile
	// MeanHold is the mean call duration in ticks (exponential).
	MeanHold float64
	// HandoffRate is the per-call rate (events per tick) of moving to
	// an adjacent cell; 0 disables mobility. Negative rates are
	// rejected.
	HandoffRate float64
	// Duration is when arrivals stop; held calls then drain.
	Duration sim.Time
	// Warmup excludes the initial transient from the statistics. It
	// must be non-negative and end before Duration.
	Warmup sim.Time
	// Seed drives arrival, holding and mobility randomness.
	Seed uint64
	// WarmStart seeds every cell with its stationary Erlang occupancy
	// before tick 0: K ~ Poisson(rate(cell, 0) × MeanHold) in-progress
	// calls, each with a residual Exp(MeanHold) holding time (the
	// residual of an in-progress exponential call is again exponential).
	// O(cells) setup replaces simulating ≳ one mean hold of ramp-up.
	// Seeded calls model traffic admitted before the run, so they are
	// not counted in Offered/Blocked; their draws come from the cell's
	// arrival substream ahead of the first arrival gap, keeping the
	// schedule a pure per-cell function of (spec, seed) — bit-identical
	// between Run and RunParallel at any shard or worker count.
	WarmStart bool
	// DrainHorizon bounds the post-Duration drain. 0 (the default)
	// drains to natural quiescence: every held call runs to its
	// exponential completion, a span of ~tens of MeanHolds. When > 0
	// the run instead stops at the event-time cutoff
	// Duration + DrainHorizon: later events are discarded, still-held
	// calls are force-released in canonical (cell, request) order and
	// in-flight requests cancelled, so every statistic over the
	// Warmup..Duration measurement window is bit-identical to the
	// full-drain run while the wall-clock cost of the tail disappears.
	// Handoff and blocking tallies close at Duration in this mode (see
	// countsHandoff/countsDenial). Pick a horizon of at least a few protocol
	// round-trips (say 20 × latency) so every request submitted inside
	// the window resolves before the cutoff; negative values are
	// rejected.
	DrainHorizon sim.Time
}

// validate checks the spec fields shared by Run and RunParallel.
func (s Spec) validate() error {
	if s.Profile == nil || s.MeanHold <= 0 || s.Duration <= 0 {
		return fmt.Errorf("traffic: spec needs Profile, MeanHold and Duration: %+v", s)
	}
	if s.HandoffRate < 0 {
		return fmt.Errorf("traffic: HandoffRate must be >= 0 (0 disables mobility), got %v", s.HandoffRate)
	}
	if s.Warmup < 0 {
		return fmt.Errorf("traffic: Warmup must be >= 0, got %d", s.Warmup)
	}
	if s.Warmup >= s.Duration {
		return fmt.Errorf("traffic: Warmup (%d) must end before Duration (%d) — no arrival would ever be measured", s.Warmup, s.Duration)
	}
	if s.DrainHorizon < 0 {
		return fmt.Errorf("traffic: DrainHorizon must be >= 0 (0 drains to natural quiescence), got %d", s.DrainHorizon)
	}
	return nil
}

// countsHandoff reports whether a handoff event at time now lands in
// the tally window. With a full drain (DrainHorizon == 0) the window is
// open-ended past Warmup — the legacy behavior every recorded
// trajectory depends on, where post-Duration crossings of draining
// calls still count. A truncated drain closes the window at Duration:
// post-Duration crossings depend on how far the drain happens to run,
// so bounding the window is what makes the tallies a pure function of
// the Warmup..Duration measurement window, identical for every horizon
// large enough to resolve the in-window requests.
func (s Spec) countsHandoff(now sim.Time) bool {
	if now < s.Warmup {
		return false
	}
	return s.DrainHorizon == 0 || now <= s.Duration
}

// countsDenial reports whether a denial at time now counts against a
// measured request (one submitted after Warmup). A full drain counts
// every such denial, whenever the station's deferred-request machinery
// resolves it — the legacy behavior. A truncated drain counts only
// denials inside the measurement window: a deferral's post-Duration
// fate (denied under one horizon, cancelled under another) must not
// leak into the tallies, or Blocked would depend on the horizon.
func (s Spec) countsDenial(now sim.Time) bool {
	return s.DrainHorizon == 0 || now <= s.Duration
}

// Substream labels. Every stream the workload consumes is per cell, so
// the generated schedule is a pure function of (spec, seed) — on the
// sharded kernel each stream is additionally consumed by exactly one
// shard (the cell's owner), which is what lets mobility run in
// parallel.
const (
	// arrivalLabel + cell seeds the cell's arrival/thinning/holding
	// stream.
	arrivalLabel = 0x7a0
	// mobilityLabel + cell seeds the cell's mobility stream: dwell
	// times and neighbor picks for every call leg currently in that
	// cell, drawn when the leg is granted there.
	mobilityLabel = 0x4d0b0000
)

// Stats are the telephony-level outcomes of a workload run (measured
// after warmup).
type Stats struct {
	// Offered counts new-call arrivals; Blocked those denied a channel.
	Offered, Blocked uint64
	// HandoffAttempts counts cell-boundary crossings by active calls;
	// HandoffDrops those that found no channel in the new cell.
	HandoffAttempts, HandoffDrops uint64
	// PerCellOffered/PerCellBlocked break blocking down by cell.
	PerCellOffered, PerCellBlocked []uint64
}

// BlockingProbability is Blocked / Offered.
func (st Stats) BlockingProbability() float64 {
	if st.Offered == 0 {
		return 0
	}
	return float64(st.Blocked) / float64(st.Offered)
}

// HandoffDropProbability is HandoffDrops / HandoffAttempts.
func (st Stats) HandoffDropProbability() float64 {
	if st.HandoffAttempts == 0 {
		return 0
	}
	return float64(st.HandoffDrops) / float64(st.HandoffAttempts)
}

// GrantRatios returns the per-cell fraction of offered calls served
// (input to the Jain fairness index). Cells with no offered calls
// report 1.
func (st Stats) GrantRatios() []float64 {
	out := make([]float64, len(st.PerCellOffered))
	for i := range out {
		if st.PerCellOffered[i] == 0 {
			out[i] = 1
			continue
		}
		out[i] = 1 - float64(st.PerCellBlocked[i])/float64(st.PerCellOffered[i])
	}
	return out
}
