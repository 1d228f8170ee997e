// Command chansim runs one channel-allocation scenario and prints a
// report: blocking, handoff drops, acquisition latency, message overhead
// and the adaptive scheme's acquisition-path mix.
//
// The scenario comes from the flags, or from a -config JSON file
// (internal/scenario) with every flag set explicitly on the command line
// overriding the file: `-config scenarios/mobility.json -seed 7` is that
// file with "seed": 7. Flags left at their defaults do not apply to a
// file.
//
// Observability: -metrics serves the run's labeled metrics as
// Prometheus text over HTTP (add -linger to keep the endpoint up after
// the report); -journal writes a JSONL protocol event journal.
//
// Examples:
//
//	chansim -scheme adaptive -erlang 6
//	chansim -scheme fixed -hot-erlang 25
//	chansim -scheme basic-update -erlang 9 -seed 7
//	chansim -erlang 9 -predictor ewma,alpha=0.2 -lender interference-aware
//	chansim -config scenarios/policy-lab.json
//	chansim -erlang 9 -metrics :9090 -linger 1m -journal run.jsonl
//	chansim -config scenarios/mobility.json -shards 16
//	chansim -config scenarios/hotspot.json -erlang 2 -scheme fixed
//
// Scale: -shards N runs the scenario on the sharded event kernel (N
// tiles, -workers goroutines). The trajectory — including mobility
// (-handoff) — is bit-identical to the serial kernel's at any shard and
// worker count. -metrics works with any -shards; -journal needs one
// shard (-shards 1, or none), since records from shards running
// concurrently would interleave by schedule.
// -drain-horizon H truncates the post-duration drain H ticks after the
// arrival window (held calls force-released in canonical order, the
// measured window untouched; see DESIGN.md §9.5) — the way to run a
// giant warm-started scenario without simulating every hang-up.
//
// Profiles: -cpuprofile writes a pprof CPU profile of the whole run;
// -memprofile writes a heap profile once the run has finished, after a
// runtime.GC() and with the network still live, so inuse_space is the
// simulator's steady footprint by allocation site (`go tool pprof
// -sample_index=inuse_space -top`); -exectrace writes a runtime/trace
// execution trace of the whole run (`go tool trace`: goroutines per
// shard worker, barrier waits, GC). All three work with -shards. The
// report's "kernel" lines are the event kernel's own account of its
// memory (sim.Footprint) and, above one worker, of its shard workers'
// busy and waiting time (sim.WorkerTime), no profile needed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	"repro"
	"repro/internal/policy"
	"repro/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process: it parses args, runs the scenario,
// writes the report to stdout and diagnostics to stderr, and returns
// the exit code.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("chansim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// The description flags write into the run's description directly.
	var f scenario.File
	sc, w := &f.Scenario, &f.Workload
	fs.StringVar(&sc.Scheme, "scheme", "adaptive", "allocation scheme: "+strings.Join(adca.Schemes(), ", "))
	fs.IntVar(&sc.GridWidth, "width", 7, "grid width (cells)")
	fs.IntVar(&sc.GridHeight, "height", 0, "grid height (0 = width)")
	fs.IntVar(&sc.ReuseDistance, "reuse", 2, "co-channel reuse distance (cells)")
	fs.BoolVar(&sc.Wrap, "wrap", true, "wrap the grid toroidally (no boundary effects)")
	fs.IntVar(&sc.Channels, "channels", 70, "spectrum size")
	fs.Int64Var(&sc.LatencyTicks, "latency", 10, "one-way message latency T (ticks)")
	fs.Uint64Var(&sc.Seed, "seed", 1, "random seed (runs are deterministic per seed)")
	fs.BoolVar(&sc.CheckInterference, "check", true, "verify the interference invariant on every grant")
	fs.Float64Var(&w.ErlangPerCell, "erlang", 5, "offered load per cell (Erlang)")
	fs.Float64Var(&w.HotErlang, "hot-erlang", 0, "hot-cell offered load (0 = no hotspot)")
	fs.Float64Var(&w.HandoffRate, "handoff", 0, "per-call handoff rate (events/tick)")
	fs.Float64Var(&w.MeanHoldTicks, "hold", 3000, "mean call duration (ticks)")
	fs.Int64Var(&w.DurationTicks, "duration", 200_000, "arrival window (ticks)")
	fs.Int64Var(&w.WarmupTicks, "warmup", 20_000, "warmup excluded from stats (ticks)")
	fs.BoolVar(&w.WarmStart, "warm-start", false, "seed stationary Erlang occupancy before tick 0 (skip the ramp-up transient)")
	fs.Int64Var(&w.DrainHorizonTicks, "drain-horizon", 0, "truncate the post-duration drain this many ticks after duration, force-releasing held calls (0 = drain to quiescence)")
	var (
		config    = fs.String("config", "", "load scenario from this JSON file; flags set explicitly override it")
		predictor = fs.String("predictor", "", `adaptive NFC predictor "name[,key=val...]": `+strings.Join(adca.Predictors(), ", "))
		lender    = fs.String("lender", "", `adaptive lender strategy "name[,key=val...]": `+strings.Join(adca.LenderStrategies(), ", "))
		shards    = fs.Int("shards", 0, "run on the sharded event kernel with this many shards (0 = serial kernel)")
		workers   = fs.Int("workers", 0, "with -shards: kernel worker goroutines (0 = GOMAXPROCS, and at most that)")

		metricsAddr = fs.String("metrics", "", "serve Prometheus text metrics at this address (e.g. :9090)")
		journalPath = fs.String("journal", "", "write a JSONL event journal to this file")
		linger      = fs.Duration("linger", 0, "keep the metrics endpoint up this long after the report")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file after the run (after a GC, the network still live)")
		execTrace  = fs.String("exectrace", "", "write a runtime/trace execution trace of the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// Every return finishes the profiles. A run refused before it
	// simulated anything leaves none behind; one that fails later
	// leaves closed, readable files.
	var prof profiles
	simulated := false
	defer func() {
		if err := prof.finish(!simulated); err != nil && code == 0 {
			code = fail(err)
		}
	}()
	if err := prof.start("-cpuprofile", *cpuProfile, pprof.StartCPUProfile, pprof.StopCPUProfile); err != nil {
		return fail(err)
	}
	if err := prof.start("-exectrace", *execTrace, trace.Start, trace.Stop); err != nil {
		return fail(err)
	}
	// A -config file replaces the flags' defaults, and every flag set on
	// the command line then overrides it (each value parsed once already,
	// so setting it again cannot fail).
	if *config != "" {
		given := map[string]string{}
		fs.Visit(func(fl *flag.Flag) { given[fl.Name] = fl.Value.String() })
		var err error
		if f, err = scenario.Load(*config); err != nil {
			return fail(err)
		}
		for name, v := range given {
			fs.Set(name, v)
		}
		if f.Fault != nil {
			// The DES has no loss model yet (ROADMAP item 8(a)).
			fmt.Fprintln(stderr, "chansim: fault block applies to the wall-clock runtime only; ignored")
		}
	}
	// One seed drives both; a hot spot sits on the grid's interior cell.
	w.Seed, w.HotCell = sc.Seed, -1
	// Policy flags override the scenario file: the point of the seam is
	// re-running a checked-in scenario under a different policy pair.
	if *predictor != "" {
		spec, err := policy.ParseSpec(*predictor)
		if err != nil {
			return fail(err)
		}
		sc.Predictor = &spec
	}
	if *lender != "" {
		spec, err := policy.ParseSpec(*lender)
		if err != nil {
			return fail(err)
		}
		sc.Lender = &spec
	}
	if *journalPath != "" && *shards > 1 {
		// adca.NewParallel would say the same; saying it here leaves no
		// empty journal file behind.
		return fail(fmt.Errorf("chansim: -journal needs one shard (-shards 1, or no -shards), got -shards %d: records from shards running concurrently would interleave by schedule", *shards))
	}
	if *metricsAddr != "" || *journalPath != "" {
		oc := &adca.ObsConfig{MetricsAddr: *metricsAddr}
		if *journalPath != "" {
			jf, err := os.Create(*journalPath)
			if err != nil {
				return fail(err)
			}
			defer jf.Close()
			oc.Journal = jf
		}
		sc.Obs = oc
	}
	// -shards N is the same scenario on the sharded kernel: the same
	// trajectory at any shard and worker count.
	build := adca.New
	if *shards > 0 {
		build = adca.NewParallel
	}
	net, err := build(*sc, adca.WithShards(*shards), adca.WithWorkers(*workers))
	if err != nil {
		return fail(err)
	}
	defer net.Close()
	if addr := net.MetricsAddr(); addr != "" {
		fmt.Fprintf(stdout, "metrics           http://%s/metrics\n", addr)
	}
	// RunWorkload verifies the interference invariant over the final
	// state before it returns.
	ws, err := net.RunWorkload(*w)
	simulated = err == nil || net.KernelFootprint().Pops > 0
	if err != nil {
		return fail(err)
	}
	if err := prof.finish(false); err != nil {
		return fail(err)
	}
	if err := writeHeapProfile(*memProfile, net); err != nil {
		return fail(err)
	}
	if *shards > 0 {
		fmt.Fprintf(stdout, "driver            parallel (%d shards)\n", *shards)
	}
	fmt.Fprintf(stdout, "cells / channels  %d / %d\n", net.NumCells(), net.NumChannels())
	st := net.Stats()
	printReport(stdout, net.Scheme(), ws, st, sc.LatencyTicks)
	if net.Scheme() == "adaptive" {
		fmt.Fprintf(stdout, "warm stations     %d of %d hold a borrowing block\n", st.WarmStations, net.NumCells())
	}
	printKernel(stdout, net.KernelFootprint(), net.KernelWorkers())
	if addr := net.MetricsAddr(); addr != "" && *linger > 0 {
		fmt.Fprintf(stdout, "metrics           lingering at http://%s/metrics for %v\n", addr, *linger)
		time.Sleep(*linger)
	}
	return 0
}

// printReport renders the scenario report: telephony outcomes
// (including handoff drops, merged across shards, and the requests a
// -drain-horizon cutoff cancelled), latency in units of
// T, message overhead and the adaptive path mix.
func printReport(w io.Writer, scheme string, ws adca.WorkloadStats, st adca.Stats, latencyTicks int64) {
	fmt.Fprintf(w, "scheme            %s\n", scheme)
	fmt.Fprintf(w, "offered calls     %d\n", ws.Offered)
	fmt.Fprintf(w, "blocking          %.4f\n", ws.BlockingProbability())
	if ws.HandoffAttempts > 0 {
		fmt.Fprintf(w, "handoff drops     %.4f (%d attempts)\n", ws.HandoffDropProbability(), ws.HandoffAttempts)
	}
	fmt.Fprintf(w, "cancelled         %d requests in flight at the cutoff, neither granted nor denied\n", ws.Cancelled)
	tUnit := float64(latencyTicks)
	if tUnit == 0 {
		tUnit = 10
	}
	fmt.Fprintf(w, "acq time (mean)   %.2f T\n", st.MeanAcquireTicks/tUnit)
	fmt.Fprintf(w, "acq time (p95)    %.2f T\n", st.P95AcquireTicks/tUnit)
	fmt.Fprintf(w, "messages/call     %.2f\n", st.MessagesPerRequest)
	grants := st.LocalGrants + st.UpdateGrants + st.SearchGrants
	if grants > 0 && scheme == "adaptive" {
		fmt.Fprintf(w, "path mix          ξ1=%.3f ξ2=%.3f ξ3=%.3f\n",
			float64(st.LocalGrants)/float64(grants),
			float64(st.UpdateGrants)/float64(grants),
			float64(st.SearchGrants)/float64(grants))
	}
	fmt.Fprintf(w, "invariant         ok (no co-channel interference)\n")
}

// printKernel renders the event kernel's own account of what it holds
// and, above one worker, of where its workers' wall clock went.
func printKernel(w io.Writer, f adca.KernelFootprint, workers []adca.KernelWorker) {
	const mb = 1 << 20
	fmt.Fprintf(w, "kernel memory     heap %.1f MB (%d pages), far log %.1f MB (%d pages), attachments %.1f MB (%d pages), funcs %.1f MB, routes %.1f MB\n",
		float64(f.HeapBytes)/mb, f.HeapPages, float64(f.LogBytes)/mb, f.LogPages, float64(f.AttBytes)/mb, f.AttPages, float64(f.SideBytes)/mb, float64(f.RouteBytes)/mb)
	fmt.Fprintf(w, "kernel queue      peak %d records for %d events pending, in a pool that peaked at %d pages (%.1f MB, %d out now); %d records popped, %d of them through %d far-log batches (%d in the log now); %d past the cutoff never queued; attachments %d stored, %d shared\n",
		f.PeakRecords, f.PeakEvents, f.PoolPages, float64(f.PoolBytes)/mb, f.PoolOut, f.Pops, f.Batched, f.Refills, f.LogRecords, f.PastCutoff, f.AttParked, f.AttShared)
	if len(workers) > 1 {
		each := make([]string, len(workers))
		for i, t := range workers {
			each[i] = fmt.Sprintf("%d: %d phases, busy %.3f s, wait %.3f s", i, t.Phases, t.Busy.Seconds(), t.Wait.Seconds())
		}
		fmt.Fprintf(w, "kernel workers    %s\n", strings.Join(each, "; "))
	}
}

// profiles are the -cpuprofile and -exectrace outputs a run has started.
type profiles []profile

type profile struct {
	flag string
	file *os.File
	stop func()
}

// start begins one profile into path (none if empty) and records how to
// finish it.
func (ps *profiles) start(flag, path string, start func(io.Writer) error, stop func()) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err == nil {
		if err = start(f); err != nil {
			f.Close()
			os.Remove(path)
		}
	}
	if err != nil {
		return fmt.Errorf("chansim: %s: %w", flag, err)
	}
	*ps = append(*ps, profile{flag, f, stop})
	return nil
}

// finish stops every profile still running and closes its file, or,
// with discard, removes it. Finishing twice is harmless.
func (ps *profiles) finish(discard bool) error {
	var first error
	for _, p := range *ps {
		p.stop()
		err := p.file.Close()
		if discard {
			err = os.Remove(p.file.Name())
		}
		if err != nil && first == nil {
			first = fmt.Errorf("chansim: %s: %w", p.flag, err)
		}
	}
	*ps = nil
	return first
}

// writeHeapProfile writes the heap profile to path (none if empty). It
// collects first, so the profile is the settled heap, and keeps network
// reachable across the write, so that heap still holds the simulator.
func writeHeapProfile(path string, network any) error {
	if path == "" {
		return nil
	}
	runtime.GC()
	f, err := os.Create(path)
	if err == nil {
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	runtime.KeepAlive(network)
	if err != nil {
		return fmt.Errorf("chansim: -memprofile: %w", err)
	}
	return nil
}
