package adca

// Functional options for the facade entry points. A Scenario literal
// still works everywhere; options exist so policy selection,
// observability and parallel sizing compose without the caller mutating
// scenario structs by hand:
//
//	net, _ := adca.New(sc, adca.WithPredictor("ewma", nil),
//		adca.WithLender("interference-aware", nil))
//	ws, st, _ := adca.RunParallel(sc, w, adca.WithShards(16))

// Option adjusts a facade call (New, NewParallel, RunParallel). Options
// apply on top of the Scenario, last one wins.
type Option func(*runConfig)

// runConfig is the resolved form of a facade call: the scenario plus
// the sharded kernel's sizing (New runs one shard whatever they say).
type runConfig struct {
	sc Scenario
	// shards is the tile count (default min(16, cells)); workers the
	// goroutine count advancing them (default NumCPU). Neither affects
	// results.
	shards, workers int
}

func applyOptions(sc Scenario, opts []Option) runConfig {
	c := runConfig{sc: sc}
	for _, o := range opts {
		o(&c)
	}
	return c
}

// WithObs enables the observability layer (metrics, optional journal).
func WithObs(o ObsConfig) Option {
	return func(c *runConfig) { c.sc.Obs = &o }
}

// WithScheme selects the allocation scheme; see Schemes().
func WithScheme(name string) Option {
	return func(c *runConfig) { c.sc.Scheme = name }
}

// WithAdaptive overrides the adaptive scheme's scalar tuning.
func WithAdaptive(p AdaptiveParams) Option {
	return func(c *runConfig) { c.sc.Adaptive = &p }
}

// WithPredictor selects the adaptive scheme's NFC predictor by
// registered name with optional parameters; see Predictors(). Unknown
// names and parameters surface as descriptive errors from New.
func WithPredictor(name string, params map[string]float64) Option {
	return func(c *runConfig) { c.sc.Predictor = &PolicySpec{Name: name, Params: params} }
}

// WithLender selects the adaptive scheme's lender-selection strategy by
// registered name; see LenderStrategies().
func WithLender(name string, params map[string]float64) Option {
	return func(c *runConfig) { c.sc.Lender = &PolicySpec{Name: name, Params: params} }
}

// WithShards sets the sharded kernel's tile count (NewParallel and
// RunParallel).
func WithShards(n int) Option {
	return func(c *runConfig) { c.shards = n }
}

// WithWorkers sets the sharded kernel's goroutine count (NewParallel and
// RunParallel; never affects results).
func WithWorkers(n int) Option {
	return func(c *runConfig) { c.workers = n }
}
