package main

import "repro/internal/message"

// e2eDef is one end-to-end metric: what a user of the system sees, with
// the share of the baseline's median by which it may worsen before it
// counts as a regression. This table is the only place bounds are
// written down: bound is what -compare applies, per workload, and
// driverBound is what BENCHMARK.json must carry (a test holds the file
// to it).
type e2eDef struct {
	name, unit, better string
	// applies says which workloads' reports carry the metric; where it
	// does not apply it is absent, not zero.
	applies func(workload) bool
	bound   func(workload) float64
	// floor is absolute slack added to the bound (set-up times of a few
	// milliseconds would otherwise fail on scheduler noise).
	floor float64
	// driverBound is non-zero for the metrics BENCHMARK.json lists as
	// end_to_end. The benchmark driver wants each of them on every
	// workload's result line, one bound for all workloads, and the
	// spread between invocations minutes apart inside that bound. On the
	// host this was written on that spread is the host's (5-17 % on the
	// times in a quiet hour, up to 36 % in a noisy one, see README
	// "Steadiness"), so the times carry the widest bound the driver
	// allows rather than the issue's 5-15 %.
	driverBound float64
	value       func(childRun) float64
}

func anyWorkload(workload) bool { return true }
func desOnly(w workload) bool   { return w.kind != kindTCP }
func tcpOnly(w workload) bool   { return w.kind == kindTCP }
func flat(b float64) func(workload) float64 {
	return func(workload) float64 { return b }
}

// runBound is run_s's bound and that of its reciprocal: 10 % where two
// shard workers share the host's cores, 5 % single-threaded.
func runBound(w workload) float64 {
	if w.kind == kindSharded {
		return 0.10
	}
	return 0.05
}

var e2eDefs = []e2eDef{
	{name: "setup_s", unit: "s", better: "lower", applies: anyWorkload, bound: flat(0.15), floor: 0.05, driverBound: 0.25,
		value: func(r childRun) float64 { return r.SetupS }},
	{name: "run_s", unit: "s", better: "lower", applies: desOnly, bound: runBound, driverBound: 0.25,
		value: func(r childRun) float64 { return r.RunS }},
	// A tcp-borrow round is one offered call, so the driver's line has a
	// calls_per_s there too; the report calls it rounds_per_s.
	{name: "calls_per_s", unit: "1/s", better: "higher", applies: desOnly, bound: runBound, driverBound: 0.25,
		value: func(r childRun) float64 { return float64(r.Offered) / r.RunS }},
	{name: "peak_rss_mb", unit: "MB", better: "lower", applies: anyWorkload, bound: flat(0.10), driverBound: 0.10,
		value: func(r childRun) float64 { return r.PeakRSSMB }},
	{name: "round_p50_us", unit: "us", better: "lower", applies: tcpOnly, bound: flat(0.05),
		value: func(r childRun) float64 { return r.RoundP50Us }},
	{name: "round_p99_us", unit: "us", better: "lower", applies: tcpOnly, bound: flat(0.10),
		value: func(r childRun) float64 { return r.RoundP99Us }},
	{name: "rounds_per_s", unit: "1/s", better: "higher", applies: tcpOnly, bound: flat(0.05),
		value: func(r childRun) float64 { return float64(r.Rounds) / r.RunS }},
}

// failedFrac is the eighth end-to-end metric: ops_failed/ops_attempted,
// one value per workload, bound 0. The driver's result line carries it
// as its "failed" and "attempted" fields.
const failedFrac = "failed_frac"

// layerDef is one per-layer metric. Workload-independent ones come from
// the micro-drives of the layer pass; per-workload ones from a
// workload's repetitions and are printed as <name>.<workload>.
type layerDef struct {
	name, unit, better string
	perWorkload        bool
	// driver marks the metrics BENCHMARK.json lists as per_layer: all
	// but the time-valued ones tied to particular workloads, which have
	// no value to report on the others.
	driver bool
}

var layerDefs = []layerDef{
	{"hexgrid.new_ns_per_cell", "ns", "lower", false, true},
	{"chanset.assign_ns_per_cell", "ns", "lower", false, true},
	{"chanset.setop_ns", "ns", "lower", false, true},
	{"sim.engine.push_pop_ns", "ns", "lower", false, true},
	{"sim.engine.allocs_per_event", "count", "lower", false, true},
	{"sim.shards.push_pop_ns", "ns", "lower", false, true},
	{"sim.shards.allocs_per_event", "count", "lower", false, true},
	{"sim.shards.window_ns", "ns", "lower", false, true},
	{"sim.shards.cross_ns", "ns", "lower", false, true},
	{"sim.rand.exp_ns", "ns", "lower", false, true},
	{"core.handle_ns.request", "ns", "lower", false, true},
	{"core.handle_ns.response", "ns", "lower", false, true},
	{"core.handle_ns.change_mode", "ns", "lower", false, true},
	{"core.handle_ns.acquisition", "ns", "lower", false, true},
	{"core.handle_ns.release", "ns", "lower", false, true},
	{"core.local_grant_ns", "ns", "lower", false, true},
	{"core.borrow_round_ns", "ns", "lower", false, true},
	{"core.borrow_round_allocs", "count", "lower", false, true},
	{"driver.sim.new_ns_per_cell", "ns", "lower", false, true},
	{"driver.parallel.new_ns_per_cell", "ns", "lower", false, true},
	{"driver.parallel.bytes_per_cell", "B", "lower", false, true},
	{"driver.sim.local_round_ns", "ns", "lower", false, true},
	{"traffic.prime_ns_per_cell", "ns", "lower", false, true},
	{"message.encode_ns", "ns", "lower", false, true},
	{"message.decode_ns", "ns", "lower", false, true},
	{"message.bytes_per_msg", "B", "lower", false, true},
	{"netrun.msgs_per_round", "count", "lower", false, true},
	{"netrun.wire_bytes_per_round", "B", "lower", false, true},
	{"netrun.ns_per_msg", "ns", "lower", false, true},
	{"netrun.allocs_per_msg", "count", "lower", false, true},
	{"livenet.round_us", "us", "lower", false, true},

	{"sim.events", "count", "lower", true, true},
	{"sim.windows", "count", "lower", true, true},
	{"sim.max_routes_per_shard", "count", "lower", true, true},
	{"sim.shards.speedup_w2", "ratio", "higher", true, true},
	{"core.xi1", "ratio", "higher", true, true},
	{"core.xi2", "ratio", "lower", true, true},
	{"core.xi3", "ratio", "lower", true, true},
	{"core.msgs_per_call", "count", "lower", true, true},
	{"core.update_attempts", "count", "lower", true, true},
	{"core.search_rounds", "count", "lower", true, true},
	{"core.update_success_frac", "ratio", "higher", true, true},
	{"trace.checker_share", "ratio", "lower", true, true},
	{"mem.allocs_per_event", "count", "lower", true, true},
	{"mem.steady_heap_bytes_per_cell", "B", "lower", true, true},
	{"mem.gc_cpu_frac", "ratio", "lower", true, true},
	{"layers.accounted_frac", "ratio", "higher", true, true},
	{"trace_overhead_frac", "ratio", "lower", true, true},

	{"driver.stats_s", "s", "lower", true, false},
	{"driver.trace_merge_s", "s", "lower", true, false},
	{"driver.check_invariant_s", "s", "lower", true, false},
	{"traffic.prime_s", "s", "lower", true, false},
	{"traffic.run_phase_s", "s", "lower", true, false},
	{"traffic.drain_phase_s", "s", "lower", true, false},
	{"traffic.fixed_ns_per_call", "ns", "lower", true, false},
}

// exactCounts are the per-workload metrics that must repeat exactly
// between two reports of one commit: -compare treats any difference as
// a drifted trajectory.
var exactCounts = map[string]bool{
	"sim.events": true, "sim.windows": true, "sim.max_routes_per_shard": true,
	"core.xi1": true, "core.xi2": true, "core.xi3": true, "core.msgs_per_call": true,
	"core.update_attempts": true, "core.search_rounds": true, "core.update_success_frac": true,
}

// handlerMetric names the per-kind handler cost of the core drive.
var handlerMetric = map[message.Kind]string{
	message.Request:     "core.handle_ns.request",
	message.Response:    "core.handle_ns.response",
	message.ChangeMode:  "core.handle_ns.change_mode",
	message.Acquisition: "core.handle_ns.acquisition",
	message.Release:     "core.handle_ns.release",
}
