package experiments

// The policy lab: the predictor × lender-strategy × scheme sweep that
// turns the reproduction into a channel-allocation testbed. Every
// registered NFC predictor is crossed with every registered lender
// strategy on the adaptive scheme, the comparison baselines ride along
// as policy-independent rows, and the whole grid drains on the bounded
// sweep worker pool (pool.go) — deterministic at any width — before
// rendering one comparison table artifact.

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/traffic"
)

// defaultPolicyAxes returns every registered policy as a spec list.
func defaultPolicyAxes() (preds, lends []policy.Spec) {
	for _, name := range policy.Predictors() {
		preds = append(preds, policy.Spec{Name: name})
	}
	for _, name := range policy.Strategies() {
		lends = append(lends, policy.Spec{Name: name})
	}
	return preds, lends
}

// PolicySweep runs the predictor × lender matrix on the adaptive scheme
// plus the given baseline schemes, under a clustered hot spot where
// both seams actually matter (the predictor governs mode flapping, the
// lender choice the borrow collision rate). Nil axes select every
// registered policy; nil schemes select the non-adaptive baselines.
// Rows hold the adaptive matrix in predictor-major order ("adaptive
// ewma/best"), then one row per baseline scheme. The sweep comes back
// as the comparison table and as CSV for downstream analysis.
func PolicySweep(env Env, preds, lends []policy.Spec, schemes []string) (Table, string, error) {
	if preds == nil && lends == nil {
		preds, lends = defaultPolicyAxes()
	}
	if len(preds) == 0 {
		preds = []policy.Spec{{Name: "linear"}}
	}
	if len(lends) == 0 {
		lends = []policy.Spec{{Name: "best"}}
	}
	if schemes == nil {
		for _, s := range Schemes() {
			if s != "adaptive" {
				schemes = append(schemes, s)
			}
		}
	}
	g := gridOf(env)
	prim := env.PrimariesPerCell()
	profile := traffic.NewHotspot(g, g.InteriorCell(), 1,
		env.RatePerCell(0.35*prim), env.RatePerCell(1.1*prim))

	// ids holds each row's scheme, predictor and lender; the baselines
	// have no policy seam.
	var specs []spec
	var ids [][3]string
	for _, ps := range preds {
		pb, err := policy.BuildPredictor(ps)
		if err != nil {
			return Table{}, "", err
		}
		for _, ls := range lends {
			st, err := policy.BuildStrategy(ls)
			if err != nil {
				return Table{}, "", err
			}
			e := env
			e.Adaptive = env.AdaptiveParams()
			e.Adaptive.Predictor = pb
			e.Adaptive.Strategy = st
			specs = append(specs, spec{env: e, scheme: "adaptive", profile: profile})
			ids = append(ids, [3]string{"adaptive", pb.Name(), st.Name()})
		}
	}
	for _, scheme := range schemes {
		ids = append(ids, [3]string{scheme})
	}
	rs, err := sweep(env, append(specs, eachScheme(env, schemes, profile)...))
	if err != nil {
		return Table{}, "", err
	}
	t := Table{
		Title:     "policy lab — predictor x lender-strategy x scheme (clustered hot spot)",
		RowHeader: "scheme predictor/lender",
		Cols: []metrics.Series{
			{Label: "blocking", Values: points(rs, blocking)},
			{Label: "msgs/call", Values: points(rs, msgsPerCall)},
			{Label: "acq time (T)", Values: points(rs, acqTime)},
			{Label: "attempts/borrow", Values: points(rs, attempts)},
		},
	}
	var csv strings.Builder
	csv.WriteString("scheme,predictor,lender,blocking,msgs_per_call,acq_time_T,attempts_per_borrow,fairness\n")
	for i, id := range ids {
		label := id[0]
		if id[1] != "" {
			label = fmt.Sprintf("%s %s/%s", id[0], id[1], id[2])
		}
		t.Rows = append(t.Rows, label)
		r := rs[i]
		fmt.Fprintf(&csv, "%s,%s,%s,%.6f,%.4f,%.4f,%.4f,%.4f\n",
			id[0], id[1], id[2], r.Blocking, r.MsgsPerCall, r.AcqTime, r.M, r.Fairness)
	}
	return t, csv.String(), nil
}
