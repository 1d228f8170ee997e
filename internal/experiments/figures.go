package experiments

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// SweepResult is the offered-load sweep behind figures F1 (blocking), F2
// (acquisition delay), F3 (messages per call) and F7 (adaptive mode
// occupancy); F1–F3 have one series per scheme.
type SweepResult struct {
	Blocking, Delay, Messages Curve
	// Modes is F7, the adaptive scheme's acquisition-path fractions
	// ξ1/ξ2/ξ3; it has no series when adaptive was not swept.
	Modes Curve
}

// Curves lists the sweep's figures in order: F1, F2, F3 and F7 when
// it has data.
func (r SweepResult) Curves() []Curve {
	cs := []Curve{r.Blocking, r.Delay, r.Messages}
	if len(r.Modes.Series) > 0 {
		cs = append(cs, r.Modes)
	}
	return cs
}

// byLoad formats the sweep's loads as row labels.
func (r SweepResult) byLoad(format string) []string {
	rows := make([]string, len(r.Blocking.X))
	for i, l := range r.Blocking.X {
		rows[i] = fmt.Sprintf(format, l)
	}
	return rows
}

// Table dumps F1–F3 numerically, one block per metric.
func (r SweepResult) Table() string {
	var b strings.Builder
	for _, m := range []struct {
		name string
		c    Curve
	}{{"blocking", r.Blocking}, {"acq delay (T)", r.Delay}, {"msgs/call", r.Messages}} {
		t := Table{Title: m.name + " by load:", RowHeader: "load", Rows: r.byLoad("%.2f"), Cols: m.c.Series}
		b.WriteString(t.Render())
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV emits F1–F3 as CSV (columns: each scheme's blocking, delay and
// msgs side by side), for downstream plotting.
func (r SweepResult) CSV() string {
	var cols []metrics.Series
	for i, s := range r.Blocking.Series {
		cols = append(cols,
			metrics.Series{Label: s.Label + "_blocking", Values: s.Values},
			metrics.Series{Label: s.Label + "_delayT", Values: r.Delay.Series[i].Values},
			metrics.Series{Label: s.Label + "_msgs", Values: r.Messages.Series[i].Values})
	}
	return metrics.CSV("erlang_per_primary", r.byLoad("%g"), cols)
}

// LoadSweep runs every scheme across the offered-load sweep (uniform
// traffic), producing F1/F2/F3/F7.
func LoadSweep(env Env, loads []float64, schemes []string) (SweepResult, error) {
	if len(loads) == 0 {
		loads = []float64{0.05, 0.15, 0.3, 0.5, 0.7, 0.9, 1.1}
	}
	schemes = sortedOr(schemes, Schemes())
	prim := env.PrimariesPerCell()
	rs, err := sweep(env, across(len(schemes), len(loads), func(i, j int) spec {
		return spec{env: env, scheme: schemes[i], profile: traffic.Uniform{PerCell: env.RatePerCell(loads[j] * prim)}}
	}))
	if err != nil {
		return SweepResult{}, err
	}
	fig := func(name, title, ylabel string, series []metrics.Series) Curve {
		return Curve{Name: name, Title: title, XLabel: "Erlang/primary", YLabel: ylabel, X: loads, Series: series, Height: 14}
	}
	r := SweepResult{
		Blocking: fig("f1-blocking", "F1 — blocking probability vs offered load", "P(block)", series(schemes, rs, blocking)),
		Delay:    fig("f2-delay", "F2 — mean acquisition delay vs offered load", "delay (T)", series(schemes, rs, acqTime)),
		Messages: fig("f3-messages", "F3 — control messages per call vs offered load", "msgs/call", series(schemes, rs, msgsPerCall)),
	}
	if i := slices.Index(schemes, "adaptive"); i >= 0 {
		ad := rs[i*len(loads) : (i+1)*len(loads)]
		r.Modes = fig("f7-modes", "F7 — adaptive acquisition-path fractions vs offered load", "fraction", []metrics.Series{
			{Label: "ξ1 local", Values: points(ad, func(r result) float64 { return r.Xi1 })},
			{Label: "ξ2 update", Values: points(ad, func(r result) float64 { return r.Xi2 })},
			{Label: "ξ3 search", Values: points(ad, func(r result) float64 { return r.Xi3 })},
		})
		r.Modes.SVGTitle = "F7 — adaptive acquisition-path fractions vs load"
	}
	return r, nil
}

// hotBlocking is the blocking probability of the hot cells of a spec's
// traffic.Hotspot profile, averaged over its seeds.
func hotBlocking(r result) float64 {
	cells := r.profile.(traffic.Hotspot).Cells
	var sum float64
	for _, run := range r.runs {
		var off, blk uint64
		for c := range cells {
			off += run.ts.PerCellOffered[c]
			blk += run.ts.PerCellBlocked[c]
		}
		if off > 0 {
			sum += float64(blk) / float64(off)
		}
	}
	return sum / float64(len(r.runs))
}

// Hotspot runs figure F4: a standing radius-1 hotspot over a light
// background; reported is the blocking probability of the hot cells.
func Hotspot(env Env, intensities []float64, schemes []string) (Curve, error) {
	if len(intensities) == 0 {
		intensities = []float64{0.4, 0.8, 1.2, 1.6, 2.0}
	}
	schemes = sortedOr(schemes, []string{"fixed", "adaptive", "basic-search"})
	const background = 0.15
	prim := env.PrimariesPerCell()
	g := gridOf(env)
	rs, err := sweep(env, across(len(schemes), len(intensities), func(i, j int) spec {
		return spec{env: env, scheme: schemes[i], profile: traffic.NewHotspot(g, g.InteriorCell(), 1,
			env.RatePerCell(background*prim), env.RatePerCell(intensities[j]*prim))}
	}))
	if err != nil {
		return Curve{}, err
	}
	return Curve{
		Name:     "f4-hotspot",
		Title:    fmt.Sprintf("F4 — hot-cell blocking vs hotspot intensity (background %.2f Erlang/primary)", background),
		SVGTitle: "F4 — hot-cell blocking vs hotspot intensity",
		XLabel:   "hot Erlang/primary", YLabel: "P(block) hot cells",
		X: intensities, Series: series(schemes, rs, hotBlocking), Height: 14,
	}, nil
}

// ablations are the panels of figure F5: the adaptive parameter each
// sweeps, its default values, the uniform load (Erlang per primary) it
// runs at, and how a value sets the parameter under latency T.
var ablations = map[string]struct {
	title, param string
	values       []float64
	load         float64
	set          func(p *core.Params, v float64, T sim.Time)
}{
	"alpha": {"F5a — adaptive ablation: α", "alpha", []float64{0, 1, 2, 3, 5, 8}, 0.8,
		func(p *core.Params, v float64, _ sim.Time) { p.Alpha = int(v) }},
	"theta": {"F5b — adaptive ablation: θ_l (θ_h = θ_l + 2)", "theta_l", []float64{0.5, 1, 2, 3, 5}, 0.7,
		func(p *core.Params, v float64, _ sim.Time) { p.ThetaLow, p.ThetaHigh = v, v+2 }},
	"window": {"F5c — adaptive ablation: NFC window W", "W (in T)", []float64{5, 20, 50, 150, 400}, 0.7,
		func(p *core.Params, v float64, T sim.Time) { p.Window = sim.Time(v) * T }},
}

// Ablation runs one panel of figure F5 — "alpha" (F5a: update attempts
// before search), "theta" (F5b: the θ_l/θ_h hysteresis band) or
// "window" (F5c: the NFC prediction window W, in units of T) — over
// values (nil: the defaults), drawing blocking, delay and messages
// against the parameter.
func Ablation(env Env, name string, values []float64) (Curve, error) {
	a, ok := ablations[name]
	if !ok {
		return Curve{}, fmt.Errorf("experiments: no ablation %q", name)
	}
	if len(values) == 0 {
		values = a.values
	}
	profile := traffic.Uniform{PerCell: env.RatePerCell(a.load * env.PrimariesPerCell())}
	specs := make([]spec, len(values))
	for i, v := range values {
		e := env
		e.Adaptive = env.AdaptiveParams()
		a.set(&e.Adaptive, v, env.Latency)
		specs[i] = spec{env: e, scheme: "adaptive", profile: profile}
	}
	rs, err := sweep(env, specs)
	if err != nil {
		return Curve{}, err
	}
	return Curve{Title: a.title, XLabel: a.param, YLabel: "metric", X: values, Height: 12, Series: []metrics.Series{
		{Label: "blocking", Values: points(rs, blocking)},
		{Label: "delay (T)", Values: points(rs, acqTime)},
		{Label: "msgs/call /10", Values: points(rs, func(r result) float64 { return r.MsgsPerCall * 0.1 })},
	}}, nil
}

// Scalability runs figure F6 over growing wrapped grids at constant
// per-cell load. Per-call cost should stay flat (the protocols are
// neighborhood-local) — the paper's scalability claim.
func Scalability(env Env, widths []int, schemes []string) (Curve, error) {
	if len(widths) == 0 {
		widths = []int{7, 14, 21, 28}
	}
	schemes = sortedOr(schemes, []string{"adaptive", "basic-search", "basic-update"})
	cells := make([]float64, len(widths))
	for j, w := range widths {
		cells[j] = float64(w * w)
	}
	rs, err := sweep(env, across(len(schemes), len(widths), func(i, j int) spec {
		e := env
		e.Grid.Width, e.Grid.Height = widths[j], widths[j]
		// Scale the spectrum so primaries per cell stay constant.
		return spec{env: e, scheme: schemes[i], profile: traffic.Uniform{PerCell: e.RatePerCell(0.6 * e.PrimariesPerCell())}}
	}))
	if err != nil {
		return Curve{}, err
	}
	return Curve{Title: "F6 — messages per call vs system size (uniform 0.6 Erlang/primary)",
		XLabel: "cells", YLabel: "msgs/call", X: cells, Series: series(schemes, rs, msgsPerCall), Height: 12}, nil
}

// Fairness runs figure F8: the Jain index of per-cell service ratios
// against load.
func Fairness(env Env, loads []float64, schemes []string) (Curve, error) {
	if len(loads) == 0 {
		loads = []float64{0.6, 0.9, 1.2, 1.5}
	}
	schemes = sortedOr(schemes, []string{"adaptive", "basic-update", "fixed"})
	prim := env.PrimariesPerCell()
	rs, err := sweep(env, across(len(schemes), len(loads), func(i, j int) spec {
		return spec{env: env, scheme: schemes[i], profile: traffic.Uniform{PerCell: env.RatePerCell(loads[j] * prim)}}
	}))
	if err != nil {
		return Curve{}, err
	}
	return Curve{Title: "F8 — Jain fairness of per-cell grant ratios vs load",
		XLabel: "Erlang/primary", YLabel: "Jain index", X: loads, Height: 12,
		Series: series(schemes, rs, func(r result) float64 { return r.Fairness })}, nil
}

// Mobility runs F9: calls move between cells at increasing rates
// (handoffs per mean hold time); a handoff drops when the new cell
// cannot allocate a channel. Dynamic borrowing should absorb the
// induced load imbalance better than fixed allocation.
func Mobility(env Env, handoffsPerCall []float64, schemes []string) (Curve, error) {
	if len(handoffsPerCall) == 0 {
		handoffsPerCall = []float64{0.5, 1, 2, 4}
	}
	schemes = sortedOr(schemes, []string{"fixed", "adaptive"})
	profile := traffic.Uniform{PerCell: env.RatePerCell(0.6 * env.PrimariesPerCell())}
	rs, err := sweep(env, across(len(schemes), len(handoffsPerCall), func(i, j int) spec {
		return spec{env: env, scheme: schemes[i], profile: profile, handoff: handoffsPerCall[j] / env.MeanHold}
	}))
	if err != nil {
		return Curve{}, err
	}
	return Curve{
		Name:     "f9-mobility",
		Title:    "F9 — handoff drop probability vs mobility (0.6 Erlang/primary)",
		SVGTitle: "F9 — handoff drop probability vs mobility",
		XLabel:   "handoffs per call", YLabel: "P(handoff drop)", X: handoffsPerCall, Height: 12,
		Series: series(schemes, rs, func(r result) float64 { return r.HandoffDrop }),
	}, nil
}

// Latency runs F11: the same moderate workload at increasing message
// latencies T, plotting the mean acquisition delay in ticks (not
// T-units: the point is absolute latency sensitivity). The adaptive
// scheme's advantage grows with T: its ξ1 path never pays latency,
// while search/update pay per call.
func Latency(env Env, latencies []sim.Time, schemes []string) (Curve, error) {
	if len(latencies) == 0 {
		latencies = []sim.Time{5, 10, 20, 40}
	}
	schemes = sortedOr(schemes, []string{"adaptive", "basic-search", "basic-update"})
	ts := make([]float64, len(latencies))
	for j, l := range latencies {
		ts[j] = float64(l)
	}
	profile := traffic.Uniform{PerCell: env.RatePerCell(0.6 * env.PrimariesPerCell())}
	rs, err := sweep(env, across(len(schemes), len(latencies), func(i, j int) spec {
		e := env
		e.Latency = latencies[j]
		e.Adaptive = core.Params{} // re-derive defaults for the new T
		return spec{env: e, scheme: schemes[i], profile: profile}
	}))
	if err != nil {
		return Curve{}, err
	}
	return Curve{
		Name:     "f11-latency",
		Title:    "F11 — mean acquisition delay (ticks) vs message latency T (0.6 Erlang/primary)",
		SVGTitle: "F11 — mean acquisition delay (ticks) vs message latency T",
		XLabel:   "T (ticks)", YLabel: "delay (ticks)", X: ts, Height: 12,
		Series: series(schemes, rs, func(r result) float64 { return r.AcqTime * float64(r.env.Latency) }),
	}, nil
}

// Repacking runs F12, the channel-repacking extension (beyond the
// paper: moving borrowed calls onto freed primaries) against the
// paper's plain protocol, under a standing hotspot (where borrowing is
// common enough for repacking to matter).
func Repacking(env Env, loads []float64) (Curve, error) {
	if len(loads) == 0 {
		loads = []float64{0.8, 1.2, 1.6, 2.0}
	}
	g := gridOf(env)
	prim := env.PrimariesPerCell()
	variants := []string{"plain", "repack"}
	rs, err := sweep(env, across(len(variants), len(loads), func(i, j int) spec {
		e := env
		e.Adaptive = env.AdaptiveParams()
		e.Adaptive.Repack = variants[i] == "repack"
		return spec{env: e, scheme: "adaptive", profile: traffic.NewHotspot(g, g.InteriorCell(), 1,
			env.RatePerCell(0.3*prim), env.RatePerCell(loads[j]*prim))}
	}))
	if err != nil {
		return Curve{}, err
	}
	return Curve{
		Name:     "f12-repacking",
		Title:    "F12 — repacking extension: blocking vs load (adaptive, hotspot background)",
		SVGTitle: "F12 — repacking extension: blocking vs hotspot load",
		XLabel:   "Erlang/primary (hot cells)", YLabel: "P(block)", X: loads, Height: 12,
		Series: series(variants, rs, blocking),
	}, nil
}
