package experiments

import (
	"fmt"
	"math"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/hexgrid"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/traffic"
)

// predict plugs one scheme's measured workload parameters into the
// paper's closed forms (Table 1).
func predict(env Env, m Measured) (msgs, acqTime float64) {
	n := env.InterferenceDegree()
	p := env.AdaptiveParams()
	in := analytic.Inputs{
		N:       n,
		NBorrow: m.ModeBorrowFrac * n,
		NSearch: 1 + m.ModeSearchFrac*n,
		Alpha:   float64(p.Alpha),
		M:       m.M,
		Xi1:     m.Xi1,
		Xi2:     m.Xi2,
		Xi3:     m.Xi3,
		NP:      3, // owners of one channel within a reuse-2 region
		T:       1, // report acquisition time in units of T
	}
	switch m.Scheme {
	case "adaptive":
		return in.AdaptiveMessages(), in.AdaptiveAcqTime()
	case "basic-search":
		return in.BasicSearchMessages(), in.BasicSearchAcqTime()
	case "basic-update":
		return in.BasicUpdateMessages(), in.BasicUpdateAcqTime()
	case "advanced-update":
		return in.AdvancedUpdateMessages(), in.AdvancedUpdateAcqTime()
	default: // fixed
		return 0, 0
	}
}

// dynamicSchemes are the four schemes of the paper's Tables 1-3.
func dynamicSchemes() []string {
	return []string{"adaptive", "basic-search", "basic-update", "advanced-update"}
}

// Table1 reproduces Table 1: measured messages/acquisition and
// acquisition time per scheme under a moderate mixed load, against the
// paper's closed forms evaluated at the measured ξ, m, N_search and
// N_borrow.
func Table1(env Env) (Table, error) {
	g := gridOf(env)
	// Moderate non-uniform load: background 0.55 Erlang per primary
	// with a standing radius-1 hotspot at 1.5x.
	prim := env.PrimariesPerCell()
	rs, err := sweep(env, eachScheme(env, dynamicSchemes(), traffic.NewHotspot(g, g.InteriorCell(), 1,
		env.RatePerCell(0.55*prim), env.RatePerCell(0.85*prim))))
	if err != nil {
		return Table{}, err
	}
	return Table{
		Title:     "Table 1 — general-load comparison (measured vs closed form)",
		RowHeader: "scheme",
		Rows:      dynamicSchemes(),
		Cols: []metrics.Series{
			{Label: "msgs/call", Values: points(rs, msgsPerCall)},
			{Label: "predicted", Values: points(rs, func(r result) float64 { m, _ := predict(env, r.Measured); return m })},
			{Label: "acq time (T)", Values: points(rs, acqTime)},
			{Label: "predicted", Values: points(rs, func(r result) float64 { _, t := predict(env, r.Measured); return t })},
			{Label: "blocking", Values: points(rs, blocking)},
		},
		Notes: []string{
			"predictions use the body-text formulas of §5 with measured ξ1/ξ2/ξ3, m, N_search, N_borrow",
			fmt.Sprintf("N=%v interior interference neighbors, α=%d", env.InterferenceDegree(), env.AdaptiveParams().Alpha),
		},
	}, nil
}

// Table2 reproduces Table 2: the low-load comparison (ξ1 → 1). The
// paper's reference costs are emitted as the prediction columns.
func Table2(env Env) (Table, error) {
	rs, err := sweep(env, eachScheme(env, dynamicSchemes(), traffic.Uniform{PerCell: env.RatePerCell(0.08 * env.PrimariesPerCell())}))
	if err != nil {
		return Table{}, err
	}
	ref := analytic.Table2LowLoad(env.InterferenceDegree(), 1)
	return Table{
		Title:     "Table 2 — low-load comparison (0.08 Erlang per primary channel)",
		RowHeader: "scheme",
		Rows:      dynamicSchemes(),
		Cols: []metrics.Series{
			{Label: "msgs/call", Values: points(rs, msgsPerCall)},
			{Label: "predicted", Values: points(rs, func(r result) float64 { return ref[r.scheme][0] })},
			{Label: "acq time (T)", Values: points(rs, acqTime)},
			{Label: "predicted", Values: points(rs, func(r result) float64 { return ref[r.scheme][1] })},
			{Label: "blocking", Values: points(rs, blocking)},
		},
		Notes: []string{"prediction columns are the paper's Table 2 entries (T-units)"},
	}, nil
}

// Table3 reproduces Table 3: the minimum/maximum message complexity and
// acquisition time observed across a load sweep (Erlang per primary),
// checked against the paper's bound expressions.
func Table3(env Env, loads []float64) (Table, error) {
	if len(loads) == 0 {
		loads = []float64{0.05, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2}
	}
	schemes := dynamicSchemes()
	prim := env.PrimariesPerCell()
	rs, err := sweep(env, across(len(schemes), len(loads), func(i, j int) spec {
		return spec{env: env, scheme: schemes[i], profile: traffic.Uniform{PerCell: env.RatePerCell(loads[j] * prim)}}
	}))
	if err != nil {
		return Table{}, err
	}
	bounds := analytic.Table3Bounds(env.InterferenceDegree(), float64(env.AdaptiveParams().Alpha), 1)
	cols := []metrics.Series{
		{Label: "min msgs"}, {Label: "max msgs"}, {Label: "bound"},
		{Label: "min time"}, {Label: "max time"}, {Label: "bound"},
	}
	for i, scheme := range schemes {
		minMsgs, minTime := math.Inf(1), math.Inf(1)
		maxMsgs, maxTime := math.Inf(-1), math.Inf(-1)
		for _, r := range rs[i*len(loads) : (i+1)*len(loads)] {
			minMsgs, maxMsgs = math.Min(minMsgs, r.MsgsPerCall), math.Max(maxMsgs, r.MsgsPerCall)
			minTime, maxTime = math.Min(minTime, r.AcqTime), math.Max(maxTime, r.AcqTime)
		}
		for c, v := range []float64{minMsgs, maxMsgs, bounds[scheme].MaxMessages, minTime, maxTime, bounds[scheme].MaxAcqTime} {
			cols[c].Values = append(cols[c].Values, v)
		}
	}
	return Table{
		Title:     "Table 3 — min/max across load sweep (Erlang per primary: sparse→overload)",
		RowHeader: "scheme",
		Rows:      schemes,
		Cols:      cols,
		Notes: []string{
			"bound columns are the paper's maxima in messages and T-units; inf = unbounded",
			"mean per-call values; the update baselines' maxima grow with MaxRounds",
		},
	}, nil
}

// Breakdown runs appendix table A1 at a moderate uniform load, on the
// first seed only and with every message through the binary codec:
// control traffic per completed request by message kind, plus the wire
// bytes per request.
func Breakdown(env Env, schemes []string) (Table, error) {
	if len(schemes) == 0 {
		schemes = Schemes()
	}
	e := env
	e.Seeds = env.Seeds[:1]
	specs := eachScheme(e, schemes, traffic.Uniform{PerCell: env.RatePerCell(0.6 * env.PrimariesPerCell())})
	for i := range specs {
		specs[i].wire = true
	}
	rs, err := sweep(env, specs)
	if err != nil {
		return Table{}, err
	}
	// perCall averages a count per completed request over the seeds.
	perCall := func(count func(r seedRun) uint64) func(result) float64 {
		return func(r result) float64 {
			var sum float64
			for _, run := range r.runs {
				completed := float64(run.st.Grants + run.st.Denies)
				if completed == 0 {
					completed = 1
				}
				sum += float64(count(run)) / completed
			}
			return sum / float64(len(r.runs))
		}
	}
	cols := make([]metrics.Series, message.NumKinds+1)
	for k := range message.NumKinds {
		cols[k] = metrics.Series{Label: message.Kind(k).String(),
			Values: points(rs, perCall(func(r seedRun) uint64 { return r.st.Messages.ByKind[k] }))}
	}
	cols[message.NumKinds] = metrics.Series{Label: "bytes/call",
		Values: points(rs, perCall(func(r seedRun) uint64 { return r.st.Messages.Bytes }))}
	return Table{
		Title:     "A1 — control traffic by message kind (0.6 Erlang/primary, wire-encoded)",
		RowHeader: "scheme",
		Rows:      schemes,
		Cols:      cols,
	}, nil
}

// AblationLender runs ablation F5d, the paper's Best() lender heuristic
// (Figure 10) versus naive policies, under a clustered hot load
// (several adjacent hot cells, so lender choice actually matters). The
// collision proxy is attempts/borrow: mean update rounds per borrowing
// acquisition (1.0 = no collisions ever).
func AblationLender(env Env) (Table, error) {
	g := gridOf(env)
	prim := env.PrimariesPerCell()
	profile := traffic.NewHotspot(g, g.InteriorCell(), 1,
		env.RatePerCell(0.35*prim), env.RatePerCell(1.1*prim))
	policies := []core.LenderStrategy{core.BestLender(), core.FirstLender(), core.RandomLender()}
	names := make([]string, len(policies))
	specs := make([]spec, len(policies))
	for i, pol := range policies {
		e := env
		e.Adaptive = env.AdaptiveParams()
		e.Adaptive.Strategy = pol
		names[i] = pol.Name()
		specs[i] = spec{env: e, scheme: "adaptive", profile: profile}
	}
	rs, err := sweep(env, specs)
	if err != nil {
		return Table{}, err
	}
	return Table{
		Title:     "F5d — lender-choice ablation (Figure 10 Best() vs naive)",
		RowHeader: "policy",
		Rows:      names,
		Cols: []metrics.Series{
			{Label: "attempts/borrow", Values: points(rs, attempts)},
			{Label: "msgs/call", Values: points(rs, msgsPerCall)},
			{Label: "blocking", Values: points(rs, blocking)},
		},
	}, nil
}

// Transient runs F10, the Section 6 comparison against the
// allocated-search scheme of Prakash et al.: a hot pulse (one mean-hold
// long) in the middle of the run over a light background. Section 6
// claims the adaptive scheme matches basic search's transfer behavior
// with a single messaging round, while the allocated-search scheme needs
// TRANSFER/AGREE/confirm rounds once the region's channels are spread
// across allocated sets. Reported are the hot cell's blocking during
// the pulse, the per-call message bill and the mean acquisition time.
func Transient(env Env, schemes []string) (Table, error) {
	if len(schemes) == 0 {
		schemes = []string{"adaptive", "allocated-search", "basic-search"}
	}
	prim := env.PrimariesPerCell()
	pulseStart := env.Warmup + (env.Duration-env.Warmup)/3
	profile := traffic.Hotspot{
		Base:  env.RatePerCell(0.3 * prim),
		Hot:   env.RatePerCell(1.8 * prim),
		Cells: map[hexgrid.CellID]bool{gridOf(env).InteriorCell(): true},
		Start: pulseStart,
		End:   pulseStart + (env.Duration-env.Warmup)/3,
	}
	rs, err := sweep(env, eachScheme(env, schemes, profile))
	if err != nil {
		return Table{}, err
	}
	return Table{
		Title:     "F10 — transient hot spot: adaptive vs allocated-search (§6)",
		RowHeader: "scheme",
		Rows:      schemes,
		Cols: []metrics.Series{
			{Label: "hot blocking", Values: points(rs, hotBlocking)},
			{Label: "msgs/call", Values: points(rs, msgsPerCall)},
			{Label: "acq time (T)", Values: points(rs, acqTime)},
		},
	}, nil
}
