// Package scenario is the one description of a simulation run: the
// network (Scenario) and the call traffic over it (Workload), their one
// validator, and the one builder from a description to a runtime
// (Build). The public adca facade aliases these types; chansim fills
// them from a JSON file, its flags or both.
//
// Scenario files let experiments be version-controlled and shared
// instead of encoded in command lines:
//
//	{
//	  "scheme": "adaptive",
//	  "grid": {"width": 7, "height": 7, "reuse_distance": 2, "wrap": true},
//	  "channels": 70,
//	  "latency_ticks": 10,
//	  "seed": 1,
//	  "adaptive": {"theta_low": 1, "theta_high": 3, "alpha": 3, "window_ticks": 500},
//	  "predictor": {"name": "ewma", "params": {"alpha": 0.2}},
//	  "lender": {"name": "interference-aware"},
//	  "workload": {
//	    "erlang_per_cell": 6,
//	    "mean_hold_ticks": 3000,
//	    "handoff_rate": 0.001,
//	    "duration_ticks": 200000,
//	    "warmup_ticks": 20000,
//	    "hotspot": {"erlang": 25, "radius": 1},
//	    "phases": [{"center_cell": 12, "radius": 1, "erlang": 25,
//	                "start_ticks": 40000, "end_ticks": 80000}],
//	    "diurnal": {"swing": 0.5, "period_ticks": 100000}
//	  }
//	}
//
// "phases" are timed hotspot episodes (a commute wave is several phases
// marching across the grid); "diurnal" modulates all arrival rates by
// 1 + swing·sin(2π·t/period). The hotspot, and a phase without
// "center_cell", centre on the grid's interior cell. The workload's seed
// is the top-level one. Omitted fields take the defaults of the Go
// types.
package scenario

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"repro/internal/policy"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Scenario configures a network. The zero value of each field selects a
// sensible default (a wrapped 7x7 reuse-2 grid, 70 channels, T = 10
// ticks, the adaptive scheme). The tags name a field's key in a file;
// "-" marks a field the file spells differently or not at all.
type Scenario struct {
	// Scheme selects the allocation algorithm; see registry.Names.
	Scheme string `json:"scheme"`
	// GridWidth and GridHeight size the hexagonal cell array.
	GridWidth, GridHeight int `json:"-"`
	// ReuseDistance is the co-channel interference radius in cells.
	ReuseDistance int `json:"-"`
	// Wrap connects the grid toroidally, removing boundary effects.
	Wrap bool `json:"-"`
	// Channels is the number of radio channels in the spectrum.
	Channels int `json:"channels"`
	// LatencyTicks is the one-way control-message delay T.
	LatencyTicks int64 `json:"latency_ticks"`
	// JitterTicks adds uniform extra delay in [0, Jitter] per message.
	JitterTicks int64 `json:"jitter_ticks"`
	// Seed drives all randomness.
	Seed uint64 `json:"seed"`
	// CheckInterference enables the Theorem-1 invariant checker on
	// every grant (panics on violation).
	CheckInterference bool `json:"-"`
	// Adaptive overrides the adaptive scheme's tuning (nil: defaults).
	Adaptive *AdaptiveParams `json:"adaptive"`
	// Predictor selects the adaptive scheme's NFC predictor by name
	// (nil: the paper's "linear" predictor). See policy.Predictors.
	Predictor *PolicySpec `json:"predictor"`
	// Lender selects the adaptive scheme's lender-selection strategy by
	// name (nil: the paper's "best"). See policy.Strategies.
	Lender *PolicySpec `json:"lender"`
	// MaxRounds caps the retries of the update-based baselines.
	MaxRounds int `json:"max_rounds"`
	// Obs, when non-nil, enables observability: labeled metrics (and
	// optionally a Prometheus endpoint and a JSONL event journal).
	Obs *ObsConfig `json:"-"`
}

// ObsConfig enables the observability layer of a network. The zero
// value collects metrics in memory only.
type ObsConfig struct {
	// MetricsAddr, when non-empty, serves the Prometheus text
	// exposition format over HTTP at this address (e.g. ":9090"; use
	// ":0" for an ephemeral port).
	MetricsAddr string
	// Journal, when non-nil, receives one JSON object per protocol and
	// lifecycle event (JSONL). The writer stays owned by the caller.
	Journal io.Writer
}

// AdaptiveParams are the paper's tuning knobs (θ_l, θ_h, α, W).
type AdaptiveParams struct {
	ThetaLow    float64 `json:"theta_low"`
	ThetaHigh   float64 `json:"theta_high"`
	Alpha       int     `json:"alpha"`
	WindowTicks int64   `json:"window_ticks"`
}

// PolicySpec selects a registered adaptive policy (an NFC predictor or
// a lender-selection strategy) by name, with optional parameters, e.g.
// {Name: "ewma", Params: map[string]float64{"alpha": 0.2}}.
type PolicySpec = policy.Spec

// WorkloadPhase is one timed hot spot: the cells within HotRadius of
// HotCell offer HotErlang load from StartTicks (inclusive) to EndTicks
// (exclusive). Sequencing several phases across the grid models commute
// waves and flash crowds.
type WorkloadPhase struct {
	HotCell    int     `json:"-"`
	HotRadius  int     `json:"radius"`
	HotErlang  float64 `json:"erlang"`
	StartTicks int64   `json:"start_ticks"`
	EndTicks   int64   `json:"end_ticks"`
}

// DiurnalCycle modulates all arrival rates sinusoidally:
// 1 + Swing·sin(2π·t/PeriodTicks) — the day/night cycle.
type DiurnalCycle struct {
	Swing       float64 `json:"swing"`
	PeriodTicks int64   `json:"period_ticks"`
}

// Workload describes Poisson call traffic over a network. Its tags are
// those of a file's "workload" block, as on Scenario.
type Workload struct {
	// ErlangPerCell is the offered load per cell (arrival rate times
	// mean hold).
	ErlangPerCell float64 `json:"erlang_per_cell"`
	// HotCell and HotErlang optionally overlay a hot spot; HotRadius
	// extends it to the cells within that hex distance of HotCell. A
	// negative HotCell (here and in phases) selects the grid's interior
	// cell.
	HotCell   int     `json:"-"`
	HotErlang float64 `json:"-"`
	HotRadius int     `json:"-"`
	// Phases optionally overlay timed hot spots (commute waves, flash
	// crowds, stadium events).
	Phases []WorkloadPhase `json:"-"`
	// Diurnal optionally applies a day/night cycle to all rates.
	Diurnal *DiurnalCycle `json:"diurnal"`
	// MeanHoldTicks is the mean call duration (default 3000).
	MeanHoldTicks float64 `json:"mean_hold_ticks"`
	// HandoffRate is the per-call mobility rate (events per tick).
	HandoffRate float64 `json:"handoff_rate"`
	// DurationTicks bounds arrivals (default 120000); WarmupTicks
	// excludes the initial transient from statistics.
	DurationTicks int64 `json:"duration_ticks"`
	WarmupTicks   int64 `json:"warmup_ticks"`
	// Seed drives the workload randomness.
	Seed uint64 `json:"-"`
	// WarmStart seeds every cell's stationary Erlang occupancy as
	// in-progress calls before tick 0 (O(cells) setup instead of
	// simulating ≳ one mean hold of ramp-up). Seeded calls are not
	// counted as offered.
	WarmStart bool `json:"warm_start"`
	// DrainHorizonTicks, when > 0, truncates the post-duration drain
	// DurationTicks + DrainHorizonTicks into the run: later events are
	// discarded and still-held calls force-released in canonical order,
	// so stats over the measurement window match a full drain at a
	// fraction of its wall-clock. 0 drains to natural quiescence.
	DrainHorizonTicks int64 `json:"drain_horizon"`
}

// Fault is the fault model of a scenario file, for the wall-clock
// runtime: the knobs of transport.FaultConfig plus the per-request
// deadline. All probabilities are per message in [0, 1]; durations are
// microseconds (wall time — the fault model degrades the live transport,
// not the DES, whose delivery the engine owns).
type Fault struct {
	Seed             uint64  `json:"seed"`
	Drop             float64 `json:"drop"`
	Duplicate        float64 `json:"duplicate"`
	Reorder          float64 `json:"reorder"`
	JitterMaxMicros  int64   `json:"jitter_max_micros"`
	RequestTimeoutMS int64   `json:"request_timeout_ms"`
}

// File is what a scenario file describes: a network, the traffic over
// it and, optionally, a fault model.
type File struct {
	Scenario Scenario
	Workload Workload
	Fault    *Fault
}

// withDefaults fills the zero fields that select a default.
func (sc Scenario) withDefaults() Scenario {
	sc.Scheme = cmp.Or(sc.Scheme, "adaptive")
	sc.GridWidth = cmp.Or(sc.GridWidth, 7)
	sc.GridHeight = cmp.Or(sc.GridHeight, sc.GridWidth)
	sc.ReuseDistance = cmp.Or(sc.ReuseDistance, 2)
	sc.Channels = cmp.Or(sc.Channels, 70)
	sc.LatencyTicks = cmp.Or(sc.LatencyTicks, 10)
	return sc
}

// Validate rejects nonsense field values with descriptive errors before
// they can surface as panics deep inside grid, histogram or predictor
// construction. Zero values are fine (they select defaults); negatives,
// inverted parameter bands, unknown names and grids the event kernel
// cannot address are not.
func (sc Scenario) Validate() error {
	switch {
	case sc.GridWidth < 0:
		return fmt.Errorf("GridWidth must be >= 0, got %d", sc.GridWidth)
	case sc.GridHeight < 0:
		return fmt.Errorf("GridHeight must be >= 0, got %d", sc.GridHeight)
	case sc.ReuseDistance < 0:
		return fmt.Errorf("ReuseDistance must be >= 0, got %d", sc.ReuseDistance)
	case sc.Channels < 0:
		return fmt.Errorf("Channels must be >= 0, got %d", sc.Channels)
	case sc.LatencyTicks < 0:
		return fmt.Errorf("LatencyTicks must be >= 0, got %d", sc.LatencyTicks)
	case sc.JitterTicks < 0:
		return fmt.Errorf("JitterTicks must be >= 0, got %d", sc.JitterTicks)
	case sc.MaxRounds < 0:
		return fmt.Errorf("MaxRounds must be >= 0, got %d", sc.MaxRounds)
	}
	d := sc.withDefaults()
	// Refuse a grid the event kernel cannot address before building it;
	// bounding each side first keeps the product from wrapping.
	if d.GridWidth > sim.MaxOrigins || d.GridHeight > sim.MaxOrigins {
		return fmt.Errorf("grid %dx%d: a side exceeds the %d origins the event kernel can address", d.GridWidth, d.GridHeight, sim.MaxOrigins)
	}
	if err := sim.CheckOrigins(d.GridWidth * d.GridHeight); err != nil {
		return fmt.Errorf("grid %dx%d: %w", d.GridWidth, d.GridHeight, err)
	}
	if !slices.Contains(registry.Names(), d.Scheme) {
		return fmt.Errorf("unknown scheme %q (have %v)", d.Scheme, registry.Names())
	}
	if p := sc.Adaptive; p != nil {
		switch {
		case p.ThetaLow <= 0:
			return fmt.Errorf("Adaptive.ThetaLow must be > 0, got %v", p.ThetaLow)
		case p.ThetaHigh <= p.ThetaLow:
			return fmt.Errorf("Adaptive.ThetaHigh (%v) must exceed ThetaLow (%v)", p.ThetaHigh, p.ThetaLow)
		case p.Alpha < 0:
			return fmt.Errorf("Adaptive.Alpha must be >= 0, got %d", p.Alpha)
		case p.WindowTicks <= 0:
			return fmt.Errorf("Adaptive.WindowTicks must be > 0, got %d", p.WindowTicks)
		}
	}
	if p := sc.Predictor; p != nil {
		if _, err := policy.BuildPredictor(*p); err != nil {
			return fmt.Errorf("Predictor: %w", err)
		}
	}
	if l := sc.Lender; l != nil {
		if _, err := policy.BuildStrategy(*l); err != nil {
			return fmt.Errorf("Lender: %w", err)
		}
	}
	return nil
}

// withDefaults fills the zero fields that select a default.
func (w Workload) withDefaults() Workload {
	w.MeanHoldTicks = cmp.Or(w.MeanHoldTicks, 3000)
	w.DurationTicks = cmp.Or(w.DurationTicks, 120_000)
	return w
}

// Validate checks the ranges of the workload. Whether its hot cells lie
// inside the grid is checked when it is built against one (Spec).
func (w Workload) Validate() error {
	d := w.withDefaults()
	switch {
	case w.ErlangPerCell < 0:
		return fmt.Errorf("workload ErlangPerCell must be >= 0, got %v", w.ErlangPerCell)
	case w.MeanHoldTicks < 0:
		return fmt.Errorf("workload MeanHoldTicks must be >= 0, got %v", w.MeanHoldTicks)
	case w.HandoffRate < 0:
		return fmt.Errorf("workload HandoffRate must be >= 0 (0 disables mobility), got %v", w.HandoffRate)
	case w.DurationTicks < 0:
		return fmt.Errorf("workload DurationTicks must be >= 0, got %d", w.DurationTicks)
	case w.WarmupTicks < 0:
		return fmt.Errorf("workload WarmupTicks must be >= 0, got %d", w.WarmupTicks)
	case d.WarmupTicks >= d.DurationTicks:
		return fmt.Errorf("workload WarmupTicks (%d) must end before DurationTicks (%d)", d.WarmupTicks, d.DurationTicks)
	case w.DrainHorizonTicks < 0:
		return fmt.Errorf("workload DrainHorizonTicks must be >= 0 (0 drains to quiescence), got %d", w.DrainHorizonTicks)
	case w.HotErlang < 0 || w.HotRadius < 0:
		return fmt.Errorf("workload HotErlang and HotRadius must be >= 0, got %v and %d", w.HotErlang, w.HotRadius)
	}
	for i, p := range w.Phases {
		if p.HotErlang < 0 || p.HotRadius < 0 || p.StartTicks < 0 || p.EndTicks <= p.StartTicks {
			return fmt.Errorf("workload phase %d needs HotErlang and HotRadius >= 0 and a window [StartTicks, EndTicks) that is neither empty nor negative: %+v", i, p)
		}
	}
	if c := w.Diurnal; c != nil && (c.Swing < 0 || c.Swing > 1 || c.PeriodTicks <= 0) {
		return fmt.Errorf("workload Diurnal needs Swing in [0, 1] and PeriodTicks > 0: %+v", *c)
	}
	return nil
}

// Load reads, decodes and validates the scenario file at path.
func Load(path string) (File, error) {
	r, err := os.Open(path)
	if err != nil {
		return File{}, fmt.Errorf("scenario: %w", err)
	}
	defer r.Close()
	f, err := decode(r)
	if err != nil {
		return File{}, fmt.Errorf("scenario %s: %w", path, err)
	}
	return f, nil
}

// The JSON shape of a file, private to decode: the grid and the hot
// spot as blocks, phase centres as optional pointers. The flat types'
// tags name the rest.
type (
	fileJSON struct {
		Scenario
		Grid     gridJSON      `json:"grid"`
		Workload *workloadJSON `json:"workload"`
		Fault    *Fault        `json:"fault"`
	}
	gridJSON struct {
		Width         int  `json:"width"`
		Height        int  `json:"height"`
		ReuseDistance int  `json:"reuse_distance"`
		Wrap          bool `json:"wrap"`
	}
	workloadJSON struct {
		Workload
		Hotspot *struct {
			Erlang float64 `json:"erlang"`
			Radius int     `json:"radius"`
		} `json:"hotspot"`
		Phases []struct {
			WorkloadPhase
			CenterCell *int `json:"center_cell"`
		} `json:"phases"`
	}
)

// decode parses one JSON scenario and validates it. Unknown fields are
// rejected — silently ignoring a typo like "chanels" would invalidate a
// whole experiment. A file always describes a checked run: the
// interference checker is on. The workload takes the top-level seed, the
// hot spot the interior cell.
func decode(r io.Reader) (File, error) {
	var j fileJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&j); err != nil {
		return File{}, err
	}
	f := File{Scenario: j.Scenario, Fault: j.Fault}
	sc, w := &f.Scenario, &f.Workload
	sc.GridWidth, sc.GridHeight, sc.ReuseDistance, sc.Wrap = j.Grid.Width, j.Grid.Height, j.Grid.ReuseDistance, j.Grid.Wrap
	sc.CheckInterference = true
	if wl := j.Workload; wl != nil {
		*w = wl.Workload
		if h := wl.Hotspot; h != nil {
			w.HotCell, w.HotErlang, w.HotRadius = -1, h.Erlang, h.Radius
		}
		for i, p := range wl.Phases {
			p.HotCell = -1
			if p.CenterCell != nil {
				if p.HotCell = *p.CenterCell; p.HotCell < 0 {
					return File{}, fmt.Errorf("phase %d center_cell must be >= 0, got %d", i, p.HotCell)
				}
			}
			w.Phases = append(w.Phases, p.WorkloadPhase)
		}
	}
	w.Seed = sc.Seed
	if err := sc.Validate(); err != nil {
		return File{}, err
	}
	if err := w.Validate(); err != nil {
		return File{}, err
	}
	if fm := f.Fault; fm != nil {
		if fm.RequestTimeoutMS < 0 {
			return File{}, fmt.Errorf("fault request_timeout_ms must be >= 0, got %d", fm.RequestTimeoutMS)
		}
		fc := transport.FaultConfig{
			Drop: fm.Drop, Duplicate: fm.Duplicate, Reorder: fm.Reorder,
			JitterMax: time.Duration(fm.JitterMaxMicros) * time.Microsecond,
		}
		if err := fc.Validate(); err != nil {
			return File{}, err
		}
	}
	return f, nil
}
