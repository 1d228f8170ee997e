package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/message"
)

// metricValue is one per-layer figure.
type metricValue struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// host records where the numbers were taken, so a report from a host
// that cannot exhibit a parallel speedup says so itself.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
}

func thisHost() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GitCommit: "unknown"}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.GitCommit = strings.TrimSpace(string(out))
	}
	return h
}

// reconciliation is the "layers add up" line of one DES workload: each
// term is a unit cost from the layer pass times a unit count from the
// workload's own run.
type reconciliation struct {
	TermsS map[string]float64 `json:"terms_s"`
	// AccountedS is the sum of the terms; AgainstS the wall-clock they
	// are held against — run_s, or run_s at one shard worker for the
	// sharded workloads, because unit costs are single-threaded.
	AccountedS float64 `json:"accounted_s"`
	AgainstS   float64 `json:"against_s"`
	ResidualS  float64 `json:"residual_s"`
}

// workloadReport is everything the benchmark says about one workload.
type workloadReport struct {
	Name      string                 `json:"name"`
	Why       string                 `json:"why"`
	Seed      uint64                 `json:"seed"`
	Hash      string                 `json:"trajectory_hash,omitempty"`
	Attempted uint64                 `json:"ops_attempted"`
	Failed    uint64                 `json:"ops_failed"`
	Error     string                 `json:"first_error,omitempty"`
	EndToEnd  map[string]summary     `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Reconcile *reconciliation        `json:"reconciliation,omitempty"`
	// Spans are the traced repetition's spans folded by name.
	Spans map[string]spanTotal `json:"spans,omitempty"`
}

// report is the benchmark's whole output.
type report struct {
	Host      host                   `json:"host"`
	Toy       bool                   `json:"toy,omitempty"`
	Workloads []workloadReport       `json:"workloads"`
	Layers    map[string]metricValue `json:"layers,omitempty"`
	TotalS    float64                `json:"total_seconds"`
}

// layerRuns are the extra repetitions behind a workload's per-layer
// metrics: the traced one, and the variants that isolate one factor.
type layerRuns struct {
	traced childRun
	// oneWorker is the sharded workload at one shard worker.
	oneWorker *childRun
	// fixedScheme and noChecker are light-mobile-serial without the
	// protocol and without the per-grant interference checker.
	fixedScheme, noChecker *childRun
}

// runLayerRuns makes the traced repetition of m's workload and its
// variants, and checks that the traced one walked the same trajectory.
// A workload that has already failed gets none.
func runLayerRuns(m *measured, o repOpts) (*layerRuns, error) {
	if m.failed > 0 {
		return nil, nil
	}
	w := m.w
	var lr layerRuns
	var err error
	t := o
	t.traced = true
	if lr.traced, err = spawn(w, m.seed, t); err != nil {
		return nil, err
	}
	m.attempted += lr.traced.Attempted
	m.failed += lr.traced.Failed
	m.fail(0, lr.traced.Error)
	if lr.traced.Failed == 0 && lr.traced.Hash != m.hash() {
		m.fail(1, fmt.Sprintf("traced repetition hashed %s, untraced %s", lr.traced.Hash, m.hash()))
	}
	variant := func(v repOpts) (*childRun, error) {
		run, err := spawn(w, m.seed, v)
		if err != nil {
			return nil, err
		}
		if run.Failed > 0 {
			return nil, fmt.Errorf("%s variant failed: %s", w.name, run.Error)
		}
		return &run, nil
	}
	switch w.kind {
	case kindSharded:
		v := o
		v.workers = 1
		if lr.oneWorker, err = variant(v); err != nil {
			return nil, err
		}
	case kindSerial:
		v := o
		v.scheme = "fixed"
		if lr.fixedScheme, err = variant(v); err != nil {
			return nil, err
		}
		v = o
		v.noCheck = true
		if lr.noChecker, err = variant(v); err != nil {
			return nil, err
		}
	}
	return &lr, nil
}

// endToEnd summarizes m's repetitions under every applicable metric.
func endToEnd(m *measured) map[string]summary {
	out := map[string]summary{}
	for _, d := range e2eDefs {
		if d.applies(m.w) {
			out[d.name] = summarize(d.unit, m.values(d.value))
		}
	}
	frac := 0.0
	if m.attempted > 0 {
		frac = float64(m.failed) / float64(m.attempted)
	}
	out[failedFrac] = summarize("ratio", []float64{frac})
	return out
}

// perLayer derives the workload's own per-layer metrics. A metric whose
// layer does not run on the workload is absent.
func perLayer(m *measured, lr *layerRuns, micro map[string]float64) (map[string]float64, *reconciliation) {
	out := map[string]float64{}
	w, first, tr := m.w, m.runs[0], lr.traced
	runS := median(m.values(func(r childRun) float64 { return r.RunS }))
	out["trace_overhead_frac"] = tr.RunS/runS - 1
	out["mem.gc_cpu_frac"] = median(m.values(func(r childRun) float64 { return r.GCCPUFrac }))
	if w.kind == kindTCP {
		return out, nil
	}

	out["sim.events"] = float64(tr.Events)
	c := first.Counters
	if g := float64(c.Grants()); g > 0 {
		out["core.xi1"] = float64(c.GrantsLocal) / g
		out["core.xi2"] = float64(c.GrantsUpdate) / g
		out["core.xi3"] = float64(c.GrantsSearch) / g
	}
	out["core.msgs_per_call"] = float64(first.Messages) / float64(first.Requests)
	out["core.update_attempts"] = float64(c.UpdateAttempts)
	// Every search round ends in a search grant or a drop.
	out["core.search_rounds"] = float64(c.GrantsSearch + c.Drops)
	if c.UpdateAttempts > 0 {
		out["core.update_success_frac"] = float64(c.GrantsUpdate) / float64(c.UpdateAttempts)
	}
	out["driver.stats_s"] = tr.Trace.Spans["driver.Stats"].TotalS
	out["driver.trace_merge_s"] = tr.Trace.Spans["driver.Trace"].TotalS
	out["driver.check_invariant_s"] = tr.Trace.Spans["driver.CheckInvariant"].TotalS
	out["mem.allocs_per_event"] = median(m.values(func(r childRun) float64 { return float64(r.Allocs) })) / float64(tr.Events)

	against := runS
	switch w.kind {
	case kindSharded:
		out["sim.windows"] = float64(tr.Windows)
		out["sim.max_routes_per_shard"] = float64(tr.MaxRoutes)
		out["sim.shards.speedup_w2"] = lr.oneWorker.RunS / runS
		out["traffic.prime_s"] = tr.Trace.Spans["traffic.PrimeParallel"].TotalS
		out["traffic.run_phase_s"] = tr.Trace.RunPhaseS
		out["traffic.drain_phase_s"] = tr.Trace.DrainPhaseS
		out["mem.steady_heap_bytes_per_cell"] = float64(tr.Trace.HeapLiveBytes) / float64(tr.Cells)
		against = lr.oneWorker.RunS
	case kindSerial:
		out["traffic.fixed_ns_per_call"] = lr.fixedScheme.RunS * 1e9 / float64(lr.fixedScheme.Offered)
		out["trace.checker_share"] = runS/lr.noChecker.RunS - 1
	}
	rec := reconcile(w, tr, micro, against)
	out["layers.accounted_frac"] = rec.AccountedS / rec.AgainstS
	return out, rec
}

// reconcile multiplies the layer pass's unit costs by the traced
// repetition's unit counts. What it leaves out — driver bookkeeping,
// generator closures, the collector, the checker, barrier waits — is
// the residual; the figure is reported, not gated.
func reconcile(w workload, tr childRun, micro map[string]float64, against float64) *reconciliation {
	// Unit costs are nanoseconds; terms are seconds.
	terms := map[string]float64{}
	pushPop := micro["sim.engine.push_pop_ns"]
	events := float64(tr.Events)
	if w.kind == kindSharded {
		pushPop = micro["sim.shards.push_pop_ns"]
		// Protocol messages to a neighbour in another shard are boxed
		// cross-shard events and cost cross_ns instead of push_pop_ns.
		cross := float64(tr.Messages) * tr.CrossFrac
		events -= cross
		terms["sim.shards.cross"] = cross * micro["sim.shards.cross_ns"] / 1e9
		terms["sim.shards.window"] = float64(tr.Windows) * micro["sim.shards.window_ns"] / 1e9
	}
	terms["sim.push_pop"] = events * pushPop / 1e9
	for k := message.Request; k <= message.Release; k++ {
		terms[handlerMetric[k]] = float64(tr.ByKind[k]) * micro[handlerMetric[k]] / 1e9
	}
	terms["core.local_grant"] = float64(tr.Counters.GrantsLocal) * micro["core.local_grant_ns"] / 1e9
	// An arrival draws its gap, its thinning test and its hold time.
	terms["sim.rand"] = 3 * float64(tr.Requests) * micro["sim.rand.exp_ns"] / 1e9
	rec := &reconciliation{TermsS: terms, AgainstS: against}
	for _, s := range terms {
		rec.AccountedS += s
	}
	rec.ResidualS = against - rec.AccountedS
	return rec
}

// workloadReportOf assembles one workload's section. lr and micro may
// be nil when only the end-to-end metrics were measured. A workload with
// a failed operation gets no per-layer section either: a failed
// repetition stops before its counts are filled, and ratios over them
// would be NaN where the failure itself is what has to be reported.
func workloadReportOf(m *measured, lr *layerRuns, micro map[string]float64) workloadReport {
	wr := workloadReport{
		Name: m.w.name, Why: m.w.why, Seed: m.seed, Hash: m.hash(),
		Attempted: m.attempted, Failed: m.failed, Error: m.firstError,
		EndToEnd: endToEnd(m),
	}
	if lr == nil || m.failed > 0 {
		return wr
	}
	values, rec := perLayer(m, lr, micro)
	wr.PerLayer = withUnits(values)
	wr.Reconcile = rec
	wr.Spans = lr.traced.Trace.Spans
	return wr
}

// withUnits attaches each metric's unit from layerDefs.
func withUnits(values map[string]float64) map[string]metricValue {
	out := map[string]metricValue{}
	for _, d := range layerDefs {
		if v, ok := values[d.name]; ok {
			out[d.name] = metricValue{Unit: d.unit, Value: v}
		}
	}
	return out
}

// runReport is the full benchmark: every selected workload repeated in
// fresh children after one discarded warm-up child each, a traced
// repetition and variants each, then the layer pass and the
// reconciliation.
func runReport(o options, stdout, stderr io.Writer) error {
	rep := report{Host: thisHost(), Toy: o.toy}
	selected, err := o.selected()
	if err != nil {
		return err
	}
	if o.layers {
		selected = nil
	}
	// Repetitions go round-robin over the workloads, so that each
	// workload's median samples the whole session and a slow minute of
	// the host lands on all of them alike instead of on one.
	var runs []*measured
	rounds := 0
	for _, w := range selected {
		m := &measured{w: w, seed: o.seedFor(w), toy: o.toy}
		fmt.Fprintf(stderr, "benchmark: %s: 1 warm-up + %d repetitions + traced run\n", w.name, w.reps)
		if _, err := spawn(w, m.seed, o.rep); err != nil {
			return err
		}
		runs = append(runs, m)
		rounds = max(rounds, w.reps)
	}
	for round := 0; round < rounds; round++ {
		for _, m := range runs {
			if round >= m.w.reps {
				continue
			}
			run, err := spawn(m.w, m.seed, o.rep)
			if err != nil {
				return err
			}
			m.add(run)
		}
	}
	layerRunsOf := map[*measured]*layerRuns{}
	for _, m := range runs {
		if err := m.checkGolden(); err != nil {
			return err
		}
		lr, err := runLayerRuns(m, o.rep)
		if err != nil {
			return err
		}
		layerRunsOf[m] = lr
	}
	fmt.Fprintln(stderr, "benchmark: layer pass")
	micro, err := layerPass(o.toy)
	if err != nil {
		return err
	}
	rep.Layers = withUnits(micro)
	for _, m := range runs {
		rep.Workloads = append(rep.Workloads, workloadReportOf(m, layerRunsOf[m], micro))
	}
	rep.TotalS = time.Since(started).Seconds()
	rep.print(stdout)
	if err := rep.write(filepath.Join(o.outDir, "report.json")); err != nil {
		return err
	}
	for _, wr := range rep.Workloads {
		if err := wr.failure(); err != nil {
			return err
		}
	}
	return nil
}

// failure is the error a workload with failed operations exits on.
func (wr workloadReport) failure() error {
	if wr.Failed == 0 {
		return nil
	}
	return fmt.Errorf("%s: %d of %d operations failed: %s", wr.Name, wr.Failed, wr.Attempted, wr.Error)
}

func (r report) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// print writes every metric by name with its unit: end-to-end rows with
// median, quartiles and sample count, per-layer rows with their value.
func (r report) print(w io.Writer) {
	h := r.Host
	fmt.Fprintf(w, "host: num_cpu=%d gomaxprocs=%d go=%s commit=%s\n", h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.GitCommit)
	if len(r.Workloads) > 0 {
		fmt.Fprintf(w, "\nend-to-end (tracing off)\n%-22s %-16s %-6s %14s %14s %14s %3s\n", "workload", "metric", "unit", "median", "q1", "q3", "n")
	}
	for _, wr := range r.Workloads {
		for _, name := range sortedKeys(wr.EndToEnd) {
			s := wr.EndToEnd[name]
			fmt.Fprintf(w, "%-22s %-16s %-6s %14s %14s %14s %3d\n", wr.Name, name, s.Unit, num(s.Median), num(s.Q1), num(s.Q3), s.N)
		}
		if wr.Hash != "" {
			fmt.Fprintf(w, "%-22s trajectory_hash  %s\n", wr.Name, wr.Hash)
		}
	}
	fmt.Fprintf(w, "\nper-layer (layer pass)\n%-44s %-6s %14s\n", "metric", "unit", "value")
	for _, d := range layerDefs {
		if v, ok := r.Layers[d.name]; ok {
			fmt.Fprintf(w, "%-44s %-6s %14s\n", d.name, v.Unit, num(v.Value))
		}
	}
	for _, d := range layerDefs {
		for _, wr := range r.Workloads {
			if v, ok := wr.PerLayer[d.name]; ok {
				fmt.Fprintf(w, "%-44s %-6s %14s\n", d.name+"."+wr.Name, v.Unit, num(v.Value))
			}
		}
	}
	for _, wr := range r.Workloads {
		rec := wr.Reconcile
		if rec == nil {
			continue
		}
		fmt.Fprintf(w, "\nreconciliation %s: accounted %.3f s of %.3f s (%.1f%%), residual %.3f s\n",
			wr.Name, rec.AccountedS, rec.AgainstS, 100*rec.AccountedS/rec.AgainstS, rec.ResidualS)
		for _, name := range sortedKeys(rec.TermsS) {
			fmt.Fprintf(w, "  %-40s %10.3f s\n", name, rec.TermsS[name])
		}
	}
	for _, wr := range r.Workloads {
		if len(wr.Spans) == 0 {
			continue
		}
		fmt.Fprintf(w, "\nspans %s (traced repetition)\n  %-28s %8s %12s %12s\n", wr.Name, "name", "count", "total_s", "self_s")
		for _, name := range sortedKeys(wr.Spans) {
			s := wr.Spans[name]
			fmt.Fprintf(w, "  %-28s %8d %12.6f %12.6f\n", name, s.Count, s.TotalS, s.SelfS)
		}
	}
	fmt.Fprintf(w, "\nbenchmark took %.1f s\n", r.TotalS)
}

// num prints a count in full and anything else to six significant
// digits.
func num(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
