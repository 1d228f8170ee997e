package adca

// Option sizes the sharded kernel of NewParallel and RunParallel (New
// runs one shard whatever it says). The Scenario selects everything
// else; neither option affects results:
//
//	ws, st, _ := adca.RunParallel(sc, w, adca.WithShards(16))
type Option func(*sizing)

// sizing is the tile count (default min(16, cells)) and the goroutine
// count advancing them (default GOMAXPROCS, and at most that).
type sizing struct{ shards, workers int }

// WithShards sets the sharded kernel's tile count.
func WithShards(n int) Option { return func(s *sizing) { s.shards = n } }

// WithWorkers sets the sharded kernel's goroutine count.
func WithWorkers(n int) Option { return func(s *sizing) { s.workers = n } }
