// Package registry names and builds the five allocation schemes so
// drivers, benchmarks and CLI tools can select them uniformly:
// "adaptive" (the paper's contribution), "fixed", "basic-search",
// "basic-update" and "advanced-update" (the comparison baselines).
package registry

import (
	"fmt"
	"sort"

	"repro/internal/alloc"
	"repro/internal/baseline/advupdate"
	"repro/internal/baseline/fixed"
	"repro/internal/baseline/psearch"
	"repro/internal/baseline/search"
	"repro/internal/baseline/update"
	"repro/internal/chanset"
	"repro/internal/core"
	"repro/internal/hexgrid"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Config carries the per-scheme tuning knobs.
type Config struct {
	// Latency is the transport's one-way delay T; the adaptive scheme's
	// default parameters scale with it.
	Latency sim.Time
	// Adaptive overrides the adaptive scheme's parameters; zero value
	// selects core.DefaultParams(Latency).
	Adaptive core.Params
	// MaxRounds caps retries of the update-based baselines; <= 0
	// selects their defaults.
	MaxRounds int
	// Journal, when non-nil, receives the protocol core's event records.
	// Only the adaptive scheme journals; the baselines ignore it. Every
	// scheme's counts reach the metrics through alloc.Tally.
	Journal *obs.Journal
}

// Names returns all registered scheme names, sorted.
func Names() []string {
	names := []string{"adaptive", "fixed", "basic-search", "basic-update", "advanced-update", "allocated-search"}
	sort.Strings(names)
	return names
}

// Build constructs the named scheme's factory for the given scenario.
func Build(name string, grid *hexgrid.Grid, assign *chanset.Assignment, cfg Config) (alloc.Factory, error) {
	if cfg.Latency <= 0 {
		cfg.Latency = 10
	}
	switch name {
	case "adaptive":
		fac, err := core.NewFactory(grid, assign, cfg.Adaptive.OrDefaults(cfg.Latency))
		if err != nil {
			return nil, err
		}
		fac.Journal = cfg.Journal
		return fac, nil
	case "fixed":
		return fixed.NewFactory(assign), nil
	case "basic-search":
		return search.NewFactory(assign), nil
	case "basic-update":
		return update.NewFactory(assign, cfg.MaxRounds), nil
	case "advanced-update":
		return advupdate.NewFactory(grid, assign, cfg.MaxRounds), nil
	case "allocated-search":
		return psearch.NewFactory(assign), nil
	default:
		return nil, fmt.Errorf("registry: unknown scheme %q (have %v)", name, Names())
	}
}
