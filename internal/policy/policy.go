// Package policy names and builds the adaptive scheme's pluggable
// policies — NFC predictors and lender-selection strategies — so
// scenario files, CLIs and experiment sweeps can select them uniformly,
// mirroring how internal/registry names the allocation schemes.
//
// Two seams are registered (see internal/core/policy.go for the
// interfaces and the determinism contract):
//
//	predictors: linear (paper default), ewma, damped-trend, last-value
//	strategies: best (paper default), first, random,
//	            interference-aware, reused-frequency
//
// A Spec is a name plus optional float parameters; BuildPredictor and
// BuildStrategy validate both and answer with descriptive errors
// (unknown names list the registry, unknown or out-of-range parameters
// name the offender), so a typo in a scenario file cannot silently
// select the default.
package policy

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Spec selects one registered policy: a name plus optional parameters.
// The zero Name selects the seam's default ("linear" / "best").
type Spec struct {
	Name   string             `json:"name"`
	Params map[string]float64 `json:"params,omitempty"`
}

// String renders the spec in the CLI form accepted by ParseSpec.
func (s Spec) String() string {
	parts := []string{s.Name}
	for _, k := range sortedKeys(s.Params) {
		parts = append(parts, fmt.Sprintf("%s=%g", k, s.Params[k]))
	}
	return strings.Join(parts, ",")
}

// param is one accepted parameter of a registered policy.
type param struct {
	name     string
	def      float64
	min, max float64 // inclusive bounds
}

// entry is one registry row shared by both seams.
type entry struct {
	help   string
	params []param
}

// resolve validates the spec's parameters against the entry and returns
// the effective values (defaults filled in).
func (e entry) resolve(kind string, s Spec) (map[string]float64, error) {
	vals := make(map[string]float64, len(e.params))
	accepted := make([]string, 0, len(e.params))
	for _, p := range e.params {
		vals[p.name] = p.def
		accepted = append(accepted, p.name)
	}
	for k, v := range s.Params {
		var found *param
		for i := range e.params {
			if e.params[i].name == k {
				found = &e.params[i]
				break
			}
		}
		if found == nil {
			if len(accepted) == 0 {
				return nil, fmt.Errorf("policy: %s %q takes no parameters, got %q", kind, s.Name, k)
			}
			return nil, fmt.Errorf("policy: %s %q has no parameter %q (accepted: %s)",
				kind, s.Name, k, strings.Join(accepted, ", "))
		}
		// !(min <= v <= max) rather than v < min || v > max: every
		// comparison with NaN is false, so only this form refuses it.
		if !(v >= found.min && v <= found.max) {
			return nil, fmt.Errorf("policy: %s %q parameter %q = %v outside [%g, %g]",
				kind, s.Name, k, v, found.min, found.max)
		}
		vals[k] = v
	}
	return vals, nil
}

var predictors = map[string]struct {
	entry
	build func(vals map[string]float64) core.PredictorBuilder
}{
	"linear": {
		entry: entry{help: "the paper's windowed linear NFC extrapolation (default)"},
		build: func(map[string]float64) core.PredictorBuilder { return core.LinearPredictor() },
	},
	"ewma": {
		entry: entry{
			help:   "exponentially weighted moving average of the free count",
			params: []param{{name: "alpha", def: 0.3, min: 0.001, max: 1}},
		},
		build: func(v map[string]float64) core.PredictorBuilder {
			return core.EWMAPredictor(v["alpha"])
		},
	},
	"damped-trend": {
		entry: entry{
			help: "Holt level+trend smoothing with a damped forecast slope",
			params: []param{
				{name: "alpha", def: 0.5, min: 0.001, max: 1},
				{name: "beta", def: 0.2, min: 0.001, max: 1},
				{name: "phi", def: 0.8, min: 0, max: 1},
			},
		},
		build: func(v map[string]float64) core.PredictorBuilder {
			return core.DampedTrendPredictor(v["alpha"], v["beta"], v["phi"])
		},
	},
	"last-value": {
		entry: entry{help: "persistence baseline: predict the current count unchanged"},
		build: func(map[string]float64) core.PredictorBuilder { return core.LastValuePredictor() },
	},
}

var strategies = map[string]struct {
	entry
	build func(vals map[string]float64) core.LenderStrategy
}{
	"best": {
		entry: entry{help: "the paper's Figure 10 Best(): fewest shared borrowing neighbors (default)"},
		build: func(map[string]float64) core.LenderStrategy { return core.BestLender() },
	},
	"first": {
		entry: entry{help: "lowest-id eligible lender (ablation control)"},
		build: func(map[string]float64) core.LenderStrategy { return core.FirstLender() },
	},
	"random": {
		entry: entry{help: "uniformly random eligible lender (seeded, deterministic)"},
		build: func(map[string]float64) core.LenderStrategy { return core.RandomLender() },
	},
	"interference-aware": {
		entry: entry{help: "most spare primaries; avoids lenders likely to decline or reclaim"},
		build: func(map[string]float64) core.LenderStrategy { return core.InterferenceAwareLender() },
	},
	"reused-frequency": {
		entry: entry{help: "lowest channel on offer; concentrates borrowing on a reused slice"},
		build: func(map[string]float64) core.LenderStrategy { return core.ReusedFrequencyLender() },
	},
}

// Predictors returns the registered predictor names, sorted.
func Predictors() []string { return sortedKeys(predictors) }

// Strategies returns the registered lender-strategy names, sorted.
func Strategies() []string { return sortedKeys(strategies) }

// BuildPredictor constructs the named predictor builder. The zero Name
// selects "linear".
func BuildPredictor(s Spec) (core.PredictorBuilder, error) {
	if s.Name == "" {
		s.Name = "linear"
	}
	e, ok := predictors[s.Name]
	if !ok {
		return nil, fmt.Errorf("policy: unknown predictor %q (have %s)",
			s.Name, strings.Join(Predictors(), ", "))
	}
	vals, err := e.resolve("predictor", s)
	if err != nil {
		return nil, err
	}
	return e.build(vals), nil
}

// BuildStrategy constructs the named lender strategy. The zero Name
// selects "best".
func BuildStrategy(s Spec) (core.LenderStrategy, error) {
	if s.Name == "" {
		s.Name = "best"
	}
	e, ok := strategies[s.Name]
	if !ok {
		return nil, fmt.Errorf("policy: unknown lender strategy %q (have %s)",
			s.Name, strings.Join(Strategies(), ", "))
	}
	vals, err := e.resolve("lender strategy", s)
	if err != nil {
		return nil, err
	}
	return e.build(vals), nil
}

// ParseSpec parses the CLI form "name" or "name,key=val,key=val", e.g.
// "ewma,alpha=0.2". It only checks syntax; name and parameter validation
// happen in BuildPredictor/BuildStrategy.
func ParseSpec(arg string) (Spec, error) {
	parts := strings.Split(arg, ",")
	s := Spec{Name: strings.TrimSpace(parts[0])}
	if s.Name == "" {
		return Spec{}, fmt.Errorf("policy: empty policy name in %q", arg)
	}
	for _, p := range parts[1:] {
		k, v, ok := strings.Cut(p, "=")
		if !ok {
			return Spec{}, fmt.Errorf("policy: parameter %q in %q is not key=value", p, arg)
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			return Spec{}, fmt.Errorf("policy: parameter %q in %q is not numeric: %v", k, arg, err)
		}
		if s.Params == nil {
			s.Params = map[string]float64{}
		}
		s.Params[strings.TrimSpace(k)] = f
	}
	return s, nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
