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
// registry the runtime renders its tallies into and the journal it and
// the factory write. Either runtime runs on
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
	p := &Parts{Scenario: sc}
	if o := sc.Obs; o != nil {
		p.Registry = obs.New()
		if o.Journal != nil {
			p.Journal = obs.NewJournal(o.Journal)
		}
		cfg.Journal = p.Journal
	}
	var err error
	p.Grid, p.Assign, p.Factory, err = Assemble(hexgrid.Config{
		Shape: hexgrid.Rect, Width: sc.GridWidth, Height: sc.GridHeight, ReuseDistance: sc.ReuseDistance, Wrap: sc.Wrap,
	}, sc.Channels, sc.Scheme, cfg)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Assemble builds what every run stands on: the grid gc describes, its
// primary plan over channels, and scheme's allocator factory under cfg.
// Build, the evaluation's runs and the scheme conformance harness all
// assemble through it.
func Assemble(gc hexgrid.Config, channels int, scheme string, cfg registry.Config) (*hexgrid.Grid, *chanset.Assignment, alloc.Factory, error) {
	grid, err := hexgrid.New(gc)
	if err != nil {
		return nil, nil, nil, err
	}
	assign, err := chanset.Assign(grid, channels)
	if err != nil {
		return nil, nil, nil, err
	}
	factory, err := registry.Build(scheme, grid, assign, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return grid, assign, factory, nil
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
