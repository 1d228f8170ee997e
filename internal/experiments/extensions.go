package experiments

import (
	"fmt"
	"strings"

	"repro/internal/hexgrid"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/plot"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// LenderResult is ablation F5d: the paper's Best() lender heuristic
// (Figure 10) versus naive policies, measured by borrowing collision
// rate (update attempts per borrowed grant), messages and blocking.
type LenderResult struct {
	Title    string
	Policies []string
	// AttemptsPerBorrow is the collision proxy: mean update rounds per
	// borrowing acquisition (1.0 = no collisions ever).
	AttemptsPerBorrow []float64
	Msgs              []float64
	Blocking          []float64
}

// Render formats the ablation as a table.
func (r LenderResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Title)
	b.WriteString(metrics.Table("policy", r.Policies, []metrics.Series{
		{Label: "attempts/borrow", Values: r.AttemptsPerBorrow},
		{Label: "msgs/call", Values: r.Msgs},
		{Label: "blocking", Values: r.Blocking},
	}))
	return b.String()
}

// AblationLender runs F5d under a clustered hot load (several adjacent
// hot cells, so lender choice actually matters).
func AblationLender(env Env) (LenderResult, error) {
	res := LenderResult{Title: "F5d — lender-choice ablation (Figure 10 Best() vs naive)"}
	g := gridOf(env)
	prim := env.PrimariesPerCell()
	profile := traffic.NewHotspot(g, g.InteriorCell(), 1,
		env.RatePerCell(0.35*prim), env.RatePerCell(1.1*prim))
	policies := []core.LenderStrategy{core.BestLender(), core.FirstLender(), core.RandomLender()}
	specs := make([]spec, len(policies))
	for i, pol := range policies {
		e := env
		p := env.AdaptiveParams()
		p.Strategy = pol
		e.Adaptive = p
		specs[i] = spec{env: e, scheme: "adaptive", profile: profile}
	}
	ms, err := runSpecs(env.workers(), specs)
	if err != nil {
		return LenderResult{}, err
	}
	for i, pol := range policies {
		res.Policies = append(res.Policies, pol.Name())
		res.AttemptsPerBorrow = append(res.AttemptsPerBorrow, ms[i].M)
		res.Msgs = append(res.Msgs, ms[i].MsgsPerCall)
		res.Blocking = append(res.Blocking, ms[i].Blocking)
	}
	return res, nil
}

// MobilityResult is figure F9: handoff drop probability vs mobility.
type MobilityResult struct {
	Title     string
	Rates     []float64 // handoffs per mean hold time
	PerScheme map[string][]float64
}

// Render draws handoff drops against mobility.
func (r MobilityResult) Render() string {
	var series []plot.Series
	for _, sc := range metrics.SortedKeys(toF64Map(r.PerScheme)) {
		series = append(series, plot.Series{Label: sc, Values: r.PerScheme[sc]})
	}
	return plot.Chart("F9 — handoff drop probability vs mobility (0.6 Erlang/primary)",
		"handoffs per call", "P(handoff drop)", r.Rates, series, 61, 12)
}

// Mobility runs F9: calls move between cells at increasing rates; a
// handoff drops when the new cell cannot allocate a channel. Dynamic
// borrowing should absorb the induced load imbalance better than fixed
// allocation.
func Mobility(env Env, handoffsPerCall []float64, schemes []string) (MobilityResult, error) {
	if len(handoffsPerCall) == 0 {
		handoffsPerCall = []float64{0.5, 1, 2, 4}
	}
	if len(schemes) == 0 {
		schemes = []string{"fixed", "adaptive"}
	}
	prim := env.PrimariesPerCell()
	profile := traffic.Uniform{PerCell: env.RatePerCell(0.6 * prim)}
	res := MobilityResult{
		Title: "mobility", Rates: handoffsPerCall,
		PerScheme: map[string][]float64{},
	}
	var specs []spec
	for _, scheme := range schemes {
		for _, h := range handoffsPerCall {
			specs = append(specs, spec{env: env, scheme: scheme, profile: profile, handoff: h / env.MeanHold})
		}
	}
	ms, err := runSpecs(env.workers(), specs)
	if err != nil {
		return MobilityResult{}, err
	}
	for i := range specs {
		res.PerScheme[specs[i].scheme] = append(res.PerScheme[specs[i].scheme], ms[i].HandoffDrop)
	}
	return res, nil
}

// LatencyResult is figure F11: sensitivity of each scheme to the
// message latency T. The adaptive scheme's advantage grows with T: its
// ξ1 path never pays latency, while search/update pay per call.
type LatencyResult struct {
	Title     string
	Latencies []float64 // T in ticks
	// DelayTicks is the mean acquisition delay in TICKS (not T-units —
	// the point is absolute latency sensitivity).
	DelayTicks map[string][]float64
	Blocking   map[string][]float64
}

// Render draws absolute delay against T.
func (r LatencyResult) Render() string {
	var series []plot.Series
	for _, sc := range metrics.SortedKeys(toF64Map(r.DelayTicks)) {
		series = append(series, plot.Series{Label: sc, Values: r.DelayTicks[sc]})
	}
	return plot.Chart("F11 — mean acquisition delay (ticks) vs message latency T (0.6 Erlang/primary)",
		"T (ticks)", "delay (ticks)", r.Latencies, series, 61, 12)
}

// Latency runs F11: the same moderate workload at increasing message
// latencies.
func Latency(env Env, latencies []sim.Time, schemes []string) (LatencyResult, error) {
	if len(latencies) == 0 {
		latencies = []sim.Time{5, 10, 20, 40}
	}
	if len(schemes) == 0 {
		schemes = []string{"adaptive", "basic-search", "basic-update"}
	}
	prim := env.PrimariesPerCell()
	profile := traffic.Uniform{PerCell: env.RatePerCell(0.6 * prim)}
	res := LatencyResult{
		Title:      "latency sensitivity",
		DelayTicks: map[string][]float64{},
		Blocking:   map[string][]float64{},
	}
	for _, l := range latencies {
		res.Latencies = append(res.Latencies, float64(l))
	}
	var specs []spec
	for _, scheme := range schemes {
		for _, l := range latencies {
			e := env
			e.Latency = l
			e.Adaptive = core.Params{} // re-derive defaults for the new T
			specs = append(specs, spec{env: e, scheme: scheme, profile: profile})
		}
	}
	ms, err := runSpecs(env.workers(), specs)
	if err != nil {
		return LatencyResult{}, err
	}
	for i := range specs {
		scheme, l := specs[i].scheme, specs[i].env.Latency
		res.DelayTicks[scheme] = append(res.DelayTicks[scheme], ms[i].AcqTime*float64(l))
		res.Blocking[scheme] = append(res.Blocking[scheme], ms[i].Blocking)
	}
	return res, nil
}

// RepackResult is figure F12: the channel-repacking extension (beyond
// the paper) — moving borrowed calls onto freed primaries — versus the
// paper's plain protocol.
type RepackResult struct {
	Title    string
	Loads    []float64
	Blocking map[string][]float64 // "plain" / "repack"
	Msgs     map[string][]float64
}

// Render draws blocking for both variants across the load sweep.
func (r RepackResult) Render() string {
	var series []plot.Series
	for _, k := range metrics.SortedKeys(toF64Map(r.Blocking)) {
		series = append(series, plot.Series{Label: k, Values: r.Blocking[k]})
	}
	return plot.Chart("F12 — repacking extension: blocking vs load (adaptive, hotspot background)",
		"Erlang/primary (hot cells)", "P(block)", r.Loads, series, 61, 12)
}

// Repacking runs F12 under a standing hotspot (where borrowing is
// common enough for repacking to matter).
func Repacking(env Env, loads []float64) (RepackResult, error) {
	if len(loads) == 0 {
		loads = []float64{0.8, 1.2, 1.6, 2.0}
	}
	g := gridOf(env)
	prim := env.PrimariesPerCell()
	res := RepackResult{
		Title: "repacking", Loads: loads,
		Blocking: map[string][]float64{},
		Msgs:     map[string][]float64{},
	}
	variants := []struct {
		name   string
		repack bool
	}{{"plain", false}, {"repack", true}}
	var specs []spec
	var names []string
	for _, variant := range variants {
		for _, hot := range loads {
			e := env
			p := env.AdaptiveParams()
			p.Repack = variant.repack
			e.Adaptive = p
			specs = append(specs, spec{
				env: e, scheme: "adaptive",
				profile: traffic.NewHotspot(g, g.InteriorCell(), 1,
					env.RatePerCell(0.3*prim), env.RatePerCell(hot*prim)),
			})
			names = append(names, variant.name)
		}
	}
	ms, err := runSpecs(env.workers(), specs)
	if err != nil {
		return RepackResult{}, err
	}
	for i := range specs {
		res.Blocking[names[i]] = append(res.Blocking[names[i]], ms[i].Blocking)
		res.Msgs[names[i]] = append(res.Msgs[names[i]], ms[i].MsgsPerCall)
	}
	return res, nil
}

// TransientResult is figure F10: the Section 6 comparison against the
// allocated-search scheme of Prakash et al. under a transient hot spot.
type TransientResult struct {
	Title   string
	Schemes []string
	// HotBlocking is the hot cells' blocking probability during the
	// pulse; Msgs the per-call message bill; AcqTime the mean
	// acquisition time in T-units.
	HotBlocking, Msgs, AcqTime []float64
}

// Render formats the comparison table.
func (r TransientResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Title)
	b.WriteString(metrics.Table("scheme", r.Schemes, []metrics.Series{
		{Label: "hot blocking", Values: r.HotBlocking},
		{Label: "msgs/call", Values: r.Msgs},
		{Label: "acq time (T)", Values: r.AcqTime},
	}))
	return b.String()
}

// Transient runs F10: a hot pulse (one mean-hold long) in the middle of
// the run over a light background. Section 6 claims the adaptive scheme
// matches basic search's transfer behavior with a single messaging
// round, while the allocated-search scheme needs TRANSFER/AGREE/confirm
// rounds once the region's channels are spread across allocated sets.
func Transient(env Env, schemes []string) (TransientResult, error) {
	if len(schemes) == 0 {
		schemes = []string{"adaptive", "allocated-search", "basic-search"}
	}
	g := gridOf(env)
	prim := env.PrimariesPerCell()
	center := g.InteriorCell()
	pulseStart := env.Warmup + (env.Duration-env.Warmup)/3
	pulseEnd := pulseStart + (env.Duration-env.Warmup)/3
	res := TransientResult{
		Title:   "F10 — transient hot spot: adaptive vs allocated-search (§6)",
		Schemes: schemes,
	}
	specs := make([]spec, len(schemes))
	for i, scheme := range schemes {
		specs[i] = spec{
			env: env, scheme: scheme,
			profile: traffic.Hotspot{
				Base:  env.RatePerCell(0.3 * prim),
				Hot:   env.RatePerCell(1.8 * prim),
				Cells: map[hexgrid.CellID]bool{center: true},
				Start: pulseStart,
				End:   pulseEnd,
			},
		}
	}
	runs, err := runGrid(env.workers(), specs)
	if err != nil {
		return TransientResult{}, err
	}
	for i := range specs {
		var hotBlock, msgs, acq float64
		for _, r := range runs[i] {
			if off := r.ts.PerCellOffered[center]; off > 0 {
				hotBlock += float64(r.ts.PerCellBlocked[center]) / float64(off)
			}
			msgs += r.m.MsgsPerCall
			acq += r.m.AcqTime
		}
		n := float64(len(env.Seeds))
		res.HotBlocking = append(res.HotBlocking, hotBlock/n)
		res.Msgs = append(res.Msgs, msgs/n)
		res.AcqTime = append(res.AcqTime, acq/n)
	}
	return res, nil
}
