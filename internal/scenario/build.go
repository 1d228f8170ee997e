package scenario

import (
	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// Parts is a scenario built up to its runtime: the grid, the primary
// plan and the scheme's allocator factory, plus, with Obs, the metrics
// registry and journal the factory reports to. Either runtime runs on
// them: the DES through Driver, the wall-clock one through
// netrun.NewNode.
type Parts struct {
	// Scenario is the description with its defaults applied.
	Scenario Scenario
	Grid     *hexgrid.Grid
	Assign   *chanset.Assignment
	Factory  alloc.Factory
	// Registry is nil without Scenario.Obs, Journal without
	// Scenario.Obs.Journal.
	Registry *obs.Registry
	Journal  *obs.Journal
}

// Build validates sc, applies its defaults and builds its parts.
func Build(sc Scenario) (*Parts, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	sc = sc.withDefaults()
	grid, err := hexgrid.New(hexgrid.Config{
		Shape: hexgrid.Rect, Width: sc.GridWidth, Height: sc.GridHeight, ReuseDistance: sc.ReuseDistance, Wrap: sc.Wrap,
	})
	if err != nil {
		return nil, err
	}
	assign, err := chanset.Assign(grid, sc.Channels)
	if err != nil {
		return nil, err
	}
	cfg := registry.Config{Latency: sim.Time(sc.LatencyTicks), MaxRounds: sc.MaxRounds}
	if a := sc.Adaptive; a != nil {
		cfg.Adaptive = core.Params{ThetaLow: a.ThetaLow, ThetaHigh: a.ThetaHigh, Alpha: a.Alpha, Window: sim.Time(a.WindowTicks)}
	}
	// Policy selection rides alongside the scalar tuning; registry.Build
	// keeps the overrides when it derives default scalars. Validate has
	// built both once already, so neither fails here.
	if p := sc.Predictor; p != nil {
		cfg.Adaptive.Predictor, _ = policy.BuildPredictor(*p)
	}
	if l := sc.Lender; l != nil {
		cfg.Adaptive.Strategy, _ = policy.BuildStrategy(*l)
	}
	p := &Parts{Scenario: sc, Grid: grid, Assign: assign}
	if o := sc.Obs; o != nil {
		p.Registry = obs.New()
		if o.Journal != nil {
			p.Journal = obs.NewJournal(o.Journal)
		}
		cfg.Obs = obs.NewProtocol(p.Registry, p.Journal)
	}
	if p.Factory, err = registry.Build(sc.Scheme, grid, assign, cfg); err != nil {
		return nil, err
	}
	return p, nil
}

// Driver wires the DES driver over the parts: on the serial kernel, or
// with sharded on the sharded one, of shards tiles advanced by workers
// goroutines (0 selects the driver's defaults; neither changes results).
func (p *Parts) Driver(sharded bool, shards, workers int) (*driver.Sim, error) {
	sc := p.Scenario
	opts := driver.Options{
		Latency: sim.Time(sc.LatencyTicks), Jitter: sim.Time(sc.JitterTicks), Seed: sc.Seed, Check: sc.CheckInterference,
		Obs: p.Registry, Journal: p.Journal, Shards: shards, Workers: workers,
	}
	if !sharded {
		return driver.New(p.Grid, p.Assign, p.Factory, opts), nil
	}
	return driver.NewParallel(p.Grid, p.Assign, p.Factory, opts)
}

// Spec validates w and translates it (loads in Erlang) into the
// traffic spec (rates per tick) over grid, where a negative hot cell
// selects the grid's interior cell.
func (w Workload) Spec(grid *hexgrid.Grid) (traffic.Spec, error) {
	if err := w.Validate(); err != nil {
		return traffic.Spec{}, err
	}
	w = w.withDefaults()
	center := func(c int) hexgrid.CellID {
		if c < 0 {
			return grid.InteriorCell()
		}
		return hexgrid.CellID(c)
	}
	ps := traffic.ProfileSpec{BaseRate: w.ErlangPerCell / w.MeanHoldTicks}
	if w.HotErlang > 0 {
		ps.Hotspot = &traffic.HotspotSpec{Center: center(w.HotCell), Radius: w.HotRadius, Rate: w.HotErlang / w.MeanHoldTicks}
	}
	for _, ph := range w.Phases {
		ps.Phases = append(ps.Phases, traffic.PhaseSpec{
			Center: center(ph.HotCell), Radius: ph.HotRadius, Rate: ph.HotErlang / w.MeanHoldTicks,
			Start: sim.Time(ph.StartTicks), End: sim.Time(ph.EndTicks),
		})
	}
	if d := w.Diurnal; d != nil {
		ps.Diurnal = &traffic.DiurnalSpec{Swing: d.Swing, Period: sim.Time(d.PeriodTicks)}
	}
	profile, err := traffic.BuildProfile(grid, ps)
	if err != nil {
		return traffic.Spec{}, err
	}
	return traffic.Spec{
		Profile:      profile,
		MeanHold:     w.MeanHoldTicks,
		HandoffRate:  w.HandoffRate,
		Duration:     sim.Time(w.DurationTicks),
		Warmup:       sim.Time(w.WarmupTicks),
		Seed:         w.Seed,
		WarmStart:    w.WarmStart,
		DrainHorizon: sim.Time(w.DrainHorizonTicks),
	}, nil
}
