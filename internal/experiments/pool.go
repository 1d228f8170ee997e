package experiments

// Sweep scheduling. Every experiment in this package decomposes into a
// grid of independent leaf simulations — one (scheme, profile, handoff
// rate, parameter point, seed) replication each — and a leaf never
// spawns further leaves. The functions here flatten that grid into a
// single job list and drain it on a bounded worker pool.
//
// Determinism: each job writes its result into a slot fixed by its grid
// index, and aggregation walks the slots in that fixed order on the
// caller's goroutine. Float summation order is therefore identical to a
// sequential run, so rendered artifacts are bit-for-bit the same at any
// worker count (asserted by TestSweepDeterminismAcrossWidths).

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/driver"
	"repro/internal/traffic"
)

// DefaultWorkers is the worker-pool width used when Env.Workers is 0:
// the ADCA_WORKERS environment variable if set to a positive integer,
// else runtime.NumCPU(). Leaf simulations are CPU-bound and share
// nothing, so one worker per core is the sweet spot.
func DefaultWorkers() int {
	if v := os.Getenv("ADCA_WORKERS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return runtime.NumCPU()
}

// workers resolves the pool width in effect for this environment.
func (e Env) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return DefaultWorkers()
}

// forEachJob invokes fn(0..n-1), each index exactly once, on up to
// width concurrent workers. Width <= 1 degenerates to a plain inline
// loop (no goroutines), which keeps single-threaded runs trivially
// deterministic and cheap to reason about.
func forEachJob(n, width int, fn func(int)) {
	if width > n {
		width = n
	}
	if width <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(width)
	for w := 0; w < width; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// spec is one leaf configuration of the job grid; it expands into
// len(env.Seeds) replications.
type spec struct {
	env     Env
	scheme  string
	profile traffic.Profile
	handoff float64
	// wire routes every message through the binary codec (A1's byte
	// counts).
	wire bool
}

// seedRun is one replication's raw outcome.
type seedRun struct {
	m   Measured
	st  driver.Stats
	ts  traffic.Stats
	err error
}

// aggregate averages one spec's replications in seed order — the exact
// arithmetic (and summation order) of a sequential loop over the seeds,
// so a parallel sweep reproduces sequential results bitwise.
func aggregate(scheme string, runs []seedRun) Measured {
	var agg Measured
	agg.Scheme = scheme
	var fair float64
	for i := range runs {
		m := runs[i].m
		agg.Blocking += m.Blocking
		agg.HandoffDrop += m.HandoffDrop
		agg.MsgsPerCall += m.MsgsPerCall
		agg.AcqTime += m.AcqTime
		agg.Xi1 += m.Xi1
		agg.Xi2 += m.Xi2
		agg.Xi3 += m.Xi3
		agg.M += m.M
		agg.ModeBorrowFrac += m.ModeBorrowFrac
		agg.ModeSearchFrac += m.ModeSearchFrac
		fair += m.Fairness
	}
	n := float64(len(runs))
	agg.Blocking /= n
	agg.HandoffDrop /= n
	agg.MsgsPerCall /= n
	agg.AcqTime /= n
	agg.Xi1 /= n
	agg.Xi2 /= n
	agg.Xi3 /= n
	agg.M /= n
	agg.ModeBorrowFrac /= n
	agg.ModeSearchFrac /= n
	agg.Fairness = fair / n
	return agg
}

// result is one spec's outcome: the spec, its seed runs and their
// average.
type result struct {
	spec
	runs []seedRun
	Measured
}

// sweep is the one loop every artifact runs: it flattens specs × seeds
// into independent jobs, drains them on env's pool and returns one
// result per spec, in spec order. Errors are reported in fixed grid
// order (first failing spec, first failing seed within it), so the
// error surfaced does not depend on scheduling.
func sweep(env Env, specs []spec) ([]result, error) {
	out := make([]result, len(specs))
	type jobID struct{ si, ri int }
	var jobs []jobID
	for si := range specs {
		out[si] = result{spec: specs[si], runs: make([]seedRun, len(specs[si].env.Seeds))}
		for ri := range specs[si].env.Seeds {
			jobs = append(jobs, jobID{si, ri})
		}
	}
	forEachJob(len(jobs), env.workers(), func(i int) {
		r := &out[jobs[i].si]
		r.runs[jobs[i].ri] = runOnce(&r.spec, r.env.Seeds[jobs[i].ri])
	})
	for i := range out {
		r := &out[i]
		for ri, run := range r.runs {
			if run.err != nil {
				return nil, fmt.Errorf("%s (seed %d): %w", r.scheme, r.env.Seeds[ri], run.err)
			}
		}
		r.Measured = aggregate(r.scheme, r.runs)
	}
	return out, nil
}

// across lays out one spec per (series, x) pair, series-major: the
// shape of every figure.
func across(series, xs int, at func(i, j int) spec) []spec {
	specs := make([]spec, 0, series*xs)
	for i := 0; i < series; i++ {
		for j := 0; j < xs; j++ {
			specs = append(specs, at(i, j))
		}
	}
	return specs
}

// eachScheme lays out one spec per scheme under profile: a table's rows.
func eachScheme(env Env, schemes []string, profile traffic.Profile) []spec {
	return across(len(schemes), 1, func(i, _ int) spec {
		return spec{env: env, scheme: schemes[i], profile: profile}
	})
}
