// Package experiments reproduces the paper's evaluation: Tables 1-3
// (message complexity and channel acquisition time across schemes) and
// the empirical figures cataloged in DESIGN.md §4 (blocking, latency and
// overhead vs load; hot spots; parameter ablations; scalability;
// fairness). Each experiment returns a typed result with a Render()
// method; the root bench harness and cmd/chantab both drive this
// package, so `go test -bench` and the CLI emit identical artifacts.
package experiments

import (
	"repro/internal/chanset"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// Env fixes the scenario shared by an experiment's runs.
type Env struct {
	// Grid is the cell layout (wrapped lattices avoid boundary bias).
	Grid hexgrid.Config
	// Channels is the spectrum size.
	Channels int
	// Latency is the one-way message delay T in ticks.
	Latency sim.Time
	// MeanHold is the mean call duration in ticks.
	MeanHold float64
	// Duration and Warmup bound each run.
	Duration, Warmup sim.Time
	// Seeds are the replication seeds; results average across them.
	Seeds []uint64
	// Workers bounds the sweep worker pool (the number of leaf
	// simulations in flight at once). 0 means DefaultWorkers():
	// ADCA_WORKERS if set, else runtime.NumCPU(). Results are
	// identical at every width; only wall-clock changes.
	Workers int
	// MaxRounds caps the update baselines' retries.
	MaxRounds int
	// Adaptive overrides the adaptive scheme's parameters (zero value:
	// core.DefaultParams(Latency)).
	Adaptive core.Params
}

// DefaultEnv is the scenario every experiment uses unless it sweeps the
// relevant knob: a wrapped 7x7 reuse-2 lattice (N = 18 interior
// neighbors, the classic 7-cell cluster), 70 channels (10 primaries per
// cell), T = 10 ticks, 3000-tick calls.
func DefaultEnv() Env {
	return Env{
		Grid:     hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true},
		Channels: 70,
		Latency:  10,
		MeanHold: 3000,
		Duration: 120_000,
		Warmup:   20_000,
		Seeds:    []uint64{101, 202},
	}
}

// PrimariesPerCell returns the size of a cell's primary set under this
// environment (uniform across cells up to ±1).
func (e Env) PrimariesPerCell() float64 {
	g := hexgrid.MustNew(e.Grid)
	a := chanset.MustAssign(g, e.Channels)
	return float64(e.Channels) / float64(a.NumColors)
}

// RatePerCell converts offered load in Erlangs per cell to an arrival
// rate in calls per tick.
func (e Env) RatePerCell(erlang float64) float64 { return erlang / e.MeanHold }

// Measured aggregates one scheme's outcome over the replications.
type Measured struct {
	Scheme string
	// Blocking is the new-call blocking probability.
	Blocking float64
	// HandoffDrop is the handoff drop probability (0 without mobility).
	HandoffDrop float64
	// MsgsPerCall is control messages per completed request.
	MsgsPerCall float64
	// AcqTime is the mean acquisition delay in units of T.
	AcqTime float64
	// AcqP95 is the 95th-percentile acquisition delay in units of T.
	AcqP95 float64
	// AcqMax is the maximum observed acquisition delay in units of T.
	AcqMax float64
	// Xi1/Xi2/Xi3 are the measured acquisition-path fractions.
	Xi1, Xi2, Xi3 float64
	// M is the measured mean update attempts per borrowing acquisition
	// (per completed request for the update baselines).
	M float64
	// ModeBorrowFrac is the time-averaged fraction of cells in
	// borrowing mode (adaptive only).
	ModeBorrowFrac float64
	// ModeSearchFrac is the time-averaged fraction of cells in mode 3.
	ModeSearchFrac float64
	// Fairness is the Jain index of per-cell grant ratios.
	Fairness float64
	// Offered/Grants/Denies are totals across replications.
	Offered, Grants, Denies uint64
	// Messages is the total message count across replications.
	Messages uint64
}

// RunScheme drives the workload through the named scheme once per seed
// and averages the outcomes. Replications are independent simulations
// scheduled on the shared bounded worker pool (see pool.go); aggregation
// order is fixed by seed order, keeping results deterministic at any
// pool width.
func RunScheme(env Env, scheme string, profile traffic.Profile, handoffRate float64) (Measured, error) {
	ms, err := runSpecs(env.workers(), []spec{{env: env, scheme: scheme, profile: profile, handoff: handoffRate}})
	if err != nil {
		return Measured{}, err
	}
	return ms[0], nil
}

func runOnceFull(env Env, scheme string, profile traffic.Profile, handoffRate float64, seed uint64) (Measured, traffic.Stats, error) {
	g, err := hexgrid.New(env.Grid)
	if err != nil {
		return Measured{}, traffic.Stats{}, err
	}
	assign, err := chanset.Assign(g, env.Channels)
	if err != nil {
		return Measured{}, traffic.Stats{}, err
	}
	factory, err := registry.Build(scheme, g, assign, registry.Config{
		Latency: env.Latency, Adaptive: env.Adaptive, MaxRounds: env.MaxRounds,
	})
	if err != nil {
		return Measured{}, traffic.Stats{}, err
	}
	s := driver.New(g, assign, factory, driver.Options{Latency: env.Latency, Seed: seed})
	// Sample mode occupancy every 20T during the measured window.
	var borrowSum, searchSum float64
	samples := 0
	var sample func()
	sample = func() {
		occ := s.ModeOccupancy()
		borrowSum += occ[1] + occ[2] + occ[3]
		searchSum += occ[3]
		samples++
		if s.Engine().Now() < env.Duration {
			s.Engine().After(20*env.Latency, sample)
		}
	}
	s.Engine().At(env.Warmup, sample)
	ts, err := traffic.Run(s, traffic.Spec{
		Profile:     profile,
		MeanHold:    env.MeanHold,
		HandoffRate: handoffRate,
		Duration:    env.Duration,
		Warmup:      env.Warmup,
		Seed:        seed,
	})
	if err != nil {
		return Measured{}, traffic.Stats{}, err
	}
	if err := s.CheckInvariant(); err != nil {
		return Measured{}, traffic.Stats{}, err
	}
	st := s.Stats()
	m := Measured{
		Scheme:      scheme,
		Blocking:    ts.BlockingProbability(),
		HandoffDrop: ts.HandoffDropProbability(),
		Offered:     ts.Offered,
		Grants:      st.Grants,
		Denies:      st.Denies,
		Messages:    st.Messages.Total,
	}
	completed := float64(st.Grants + st.Denies)
	if completed > 0 {
		m.MsgsPerCall = float64(st.Messages.Total) / completed
	}
	t := float64(env.Latency)
	m.AcqTime = st.AcqDelay.Mean() / t
	m.AcqP95 = st.DelayP95 / t
	m.AcqMax = st.AcqDelay.Max() / t
	if g := float64(st.Counters.Grants()); g > 0 {
		m.Xi1 = float64(st.Counters.GrantsLocal) / g
		m.Xi2 = float64(st.Counters.GrantsUpdate) / g
		m.Xi3 = float64(st.Counters.GrantsSearch) / g
	}
	borrowCompletions := st.Counters.GrantsUpdate + st.Counters.GrantsSearch + st.Counters.Drops
	switch scheme {
	case "basic-update", "advanced-update":
		if completed > 0 {
			m.M = float64(st.Counters.UpdateAttempts) / completed
		}
	default:
		if borrowCompletions > 0 {
			m.M = float64(st.Counters.UpdateAttempts) / float64(borrowCompletions)
		}
	}
	if samples > 0 {
		m.ModeBorrowFrac = borrowSum / float64(samples)
		m.ModeSearchFrac = searchSum / float64(samples)
	}
	m.Fairness = metrics.JainIndex(ts.GrantRatios())
	return m, ts, nil
}

// InterferenceDegree returns N for the environment's grid (interior
// cells).
func (e Env) InterferenceDegree() float64 {
	return float64(hexgrid.MustNew(e.Grid).MaxInterferenceDegree())
}

// AdaptiveParams resolves the adaptive parameter set in effect,
// preserving any policy overrides when the scalar tuning is defaulted.
func (e Env) AdaptiveParams() core.Params {
	if e.Adaptive.Tuning() == (core.Params{}) {
		p := core.DefaultParams(e.Latency)
		p.Predictor, p.Strategy = e.Adaptive.Predictor, e.Adaptive.Strategy
		return p
	}
	return e.Adaptive
}

// Schemes lists the scheme names compared throughout the evaluation.
func Schemes() []string { return registry.Names() }

// gridOf builds the environment's grid (panics on invalid config, which
// is a programming error in experiment setup).
func gridOf(env Env) *hexgrid.Grid { return hexgrid.MustNew(env.Grid) }
