// Package scenario loads simulation scenarios from JSON files, so
// experiments can be version-controlled and shared instead of encoded in
// command lines. The schema mirrors the public adca facade:
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
// 1 + swing·sin(2π·t/period). A phase without "center_cell" centres on
// the grid's interior cell.
//
// Omitted fields default exactly as in adca.Scenario / adca.Workload.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/policy"
	"repro/internal/sim"
)

// Grid is the JSON grid block.
type Grid struct {
	Width         int  `json:"width"`
	Height        int  `json:"height"`
	ReuseDistance int  `json:"reuse_distance"`
	Wrap          bool `json:"wrap"`
}

// Adaptive is the JSON adaptive-parameter block.
type Adaptive struct {
	ThetaLow    float64 `json:"theta_low"`
	ThetaHigh   float64 `json:"theta_high"`
	Alpha       int     `json:"alpha"`
	WindowTicks int64   `json:"window_ticks"`
}

// Policy is the JSON form of one pluggable adaptive policy: a
// registered name plus optional numeric parameters. Used by the
// "predictor" and "lender" blocks:
//
//	"predictor": {"name": "ewma", "params": {"alpha": 0.2}},
//	"lender": {"name": "interference-aware"}
//
// Names and parameters validate against internal/policy's registry, so
// a typo fails the load with the accepted names instead of silently
// running the default.
type Policy struct {
	Name   string             `json:"name"`
	Params map[string]float64 `json:"params"`
}

// Hotspot is the JSON hotspot block.
type Hotspot struct {
	// Erlang is the hot cells' offered load.
	Erlang float64 `json:"erlang"`
	// Radius extends the hot zone around the grid's interior cell.
	Radius int `json:"radius"`
}

// Fault is the JSON fault-model block for live-runtime scenarios: the
// knobs of transport.FaultConfig plus the per-request deadline. All
// probabilities are per message in [0, 1]; durations are microseconds
// (wall time — the fault model degrades the live transport, not the
// DES, whose delivery the engine owns).
type Fault struct {
	Seed             uint64  `json:"seed"`
	Drop             float64 `json:"drop"`
	Duplicate        float64 `json:"duplicate"`
	Reorder          float64 `json:"reorder"`
	JitterMaxMicros  int64   `json:"jitter_max_micros"`
	RequestTimeoutMS int64   `json:"request_timeout_ms"`
}

// Phase is one timed hotspot episode: the cells within Radius of the
// center run at Erlang offered load from StartTicks (inclusive) to
// EndTicks (exclusive). A nil CenterCell selects the grid's interior
// cell, like the stationary hotspot block.
type Phase struct {
	CenterCell *int    `json:"center_cell"`
	Radius     int     `json:"radius"`
	Erlang     float64 `json:"erlang"`
	StartTicks int64   `json:"start_ticks"`
	EndTicks   int64   `json:"end_ticks"`
}

// Diurnal is the JSON day/night-cycle block: arrival rates are modulated
// by 1 + swing·sin(2π·t/period).
type Diurnal struct {
	Swing       float64 `json:"swing"`
	PeriodTicks int64   `json:"period_ticks"`
}

// Workload is the JSON workload block.
type Workload struct {
	ErlangPerCell float64 `json:"erlang_per_cell"`
	MeanHoldTicks float64 `json:"mean_hold_ticks"`
	HandoffRate   float64 `json:"handoff_rate"`
	DurationTicks int64   `json:"duration_ticks"`
	WarmupTicks   int64   `json:"warmup_ticks"`
	// WarmStart seeds every cell's stationary Erlang occupancy before
	// tick 0 instead of simulating the ramp-up transient.
	WarmStart bool `json:"warm_start"`
	// DrainHorizonTicks, when > 0, truncates the post-duration drain at
	// duration + horizon: pending events are discarded, held calls
	// force-released in canonical order. 0 drains to quiescence.
	DrainHorizonTicks int64    `json:"drain_horizon"`
	Hotspot           *Hotspot `json:"hotspot"`
	Phases            []Phase  `json:"phases"`
	Diurnal           *Diurnal `json:"diurnal"`
}

// Scenario is the top-level JSON document.
type Scenario struct {
	Scheme       string    `json:"scheme"`
	Grid         Grid      `json:"grid"`
	Channels     int       `json:"channels"`
	LatencyTicks int64     `json:"latency_ticks"`
	JitterTicks  int64     `json:"jitter_ticks"`
	Seed         uint64    `json:"seed"`
	MaxRounds    int       `json:"max_rounds"`
	Adaptive     *Adaptive `json:"adaptive"`
	Predictor    *Policy   `json:"predictor"`
	Lender       *Policy   `json:"lender"`
	Workload     *Workload `json:"workload"`
	Fault        *Fault    `json:"fault"`
}

// Load parses the JSON file at path. Unknown fields are rejected —
// silently ignoring a typo like "chanels" would invalidate a whole
// experiment.
func Load(path string) (Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	var sc Scenario
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("scenario %s: %w", path, err)
	}
	if err := sc.Validate(); err != nil {
		return Scenario{}, fmt.Errorf("scenario %s: %w", path, err)
	}
	return sc, nil
}

// Validate checks ranges that JSON typing cannot (structural validity;
// deeper protocol-level validation happens when the network is built).
func (sc Scenario) Validate() error {
	if sc.Channels < 0 {
		return fmt.Errorf("channels must be >= 0, got %d", sc.Channels)
	}
	if sc.Grid.Width < 0 || sc.Grid.Height < 0 || sc.Grid.ReuseDistance < 0 {
		return fmt.Errorf("grid dimensions must be >= 0: %+v", sc.Grid)
	}
	// A grid the event kernel's packed key cannot address would build
	// (slowly) and then panic at its first event: refuse it here.
	w, h := sc.Grid.Width, sc.Grid.Height
	if h == 0 {
		h = w // the runner's default
	}
	if err := sim.CheckOrigins(w * h); err != nil {
		return fmt.Errorf("grid %dx%d: %w", w, h, err)
	}
	if sc.LatencyTicks < 0 || sc.JitterTicks < 0 {
		return fmt.Errorf("latency/jitter must be >= 0")
	}
	if w := sc.Workload; w != nil {
		if w.HandoffRate < 0 {
			return fmt.Errorf("workload handoff_rate must be >= 0 (0 disables mobility), got %v", w.HandoffRate)
		}
		if w.ErlangPerCell < 0 || w.MeanHoldTicks < 0 {
			return fmt.Errorf("workload rates must be >= 0: %+v", *w)
		}
		if w.DurationTicks < 0 || w.WarmupTicks < 0 {
			return fmt.Errorf("workload times must be >= 0: %+v", *w)
		}
		if w.WarmupTicks > 0 && w.DurationTicks > 0 && w.WarmupTicks >= w.DurationTicks {
			return fmt.Errorf("warmup (%d) must end before duration (%d)", w.WarmupTicks, w.DurationTicks)
		}
		if w.DrainHorizonTicks < 0 {
			return fmt.Errorf("workload drain_horizon must be >= 0 (0 drains to quiescence), got %d", w.DrainHorizonTicks)
		}
		if h := w.Hotspot; h != nil && (h.Erlang < 0 || h.Radius < 0) {
			return fmt.Errorf("hotspot must be >= 0: %+v", *h)
		}
		for i, p := range w.Phases {
			if p.Erlang < 0 || p.Radius < 0 {
				return fmt.Errorf("phase %d must be >= 0: %+v", i, p)
			}
			if p.CenterCell != nil && *p.CenterCell < 0 {
				return fmt.Errorf("phase %d center_cell must be >= 0, got %d", i, *p.CenterCell)
			}
			if p.StartTicks < 0 || p.EndTicks <= p.StartTicks {
				return fmt.Errorf("phase %d window [%d, %d) is empty or negative", i, p.StartTicks, p.EndTicks)
			}
		}
		if d := w.Diurnal; d != nil {
			if d.Swing < 0 || d.Swing > 1 {
				return fmt.Errorf("diurnal swing must be in [0, 1], got %v", d.Swing)
			}
			if d.PeriodTicks <= 0 {
				return fmt.Errorf("diurnal period_ticks must be > 0, got %d", d.PeriodTicks)
			}
		}
	}
	if p := sc.Predictor; p != nil {
		if _, err := policy.BuildPredictor(policy.Spec{Name: p.Name, Params: p.Params}); err != nil {
			return fmt.Errorf("predictor: %w", err)
		}
	}
	if l := sc.Lender; l != nil {
		if _, err := policy.BuildStrategy(policy.Spec{Name: l.Name, Params: l.Params}); err != nil {
			return fmt.Errorf("lender: %w", err)
		}
	}
	if f := sc.Fault; f != nil {
		for _, p := range []struct {
			name string
			v    float64
		}{{"drop", f.Drop}, {"duplicate", f.Duplicate}, {"reorder", f.Reorder}} {
			if p.v < 0 || p.v > 1 {
				return fmt.Errorf("fault %s probability %v outside [0,1]", p.name, p.v)
			}
		}
		if f.JitterMaxMicros < 0 || f.RequestTimeoutMS < 0 {
			return fmt.Errorf("fault durations must be >= 0: %+v", *f)
		}
	}
	return nil
}
