// Command chansim runs one channel-allocation scenario from flags and
// prints a report: blocking, handoff drops, acquisition latency, message
// overhead and the adaptive scheme's acquisition-path mix.
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
//
// Scale: -shards N runs the scenario on the sharded parallel driver
// (N tiles, -workers goroutines). The trajectory — including mobility
// (-handoff) — is bit-identical to the serial driver's at any shard and
// worker count; only -metrics/-journal require the serial path.
// -drain-horizon H truncates the post-duration drain H ticks after the
// arrival window (held calls force-released in canonical order, the
// measured window untouched; see DESIGN.md §9.8) — the way to run a
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
// memory (sim.Footprint), no profile needed.
//
// Performance: -bench runs the measurement harness instead of a
// scenario and emits a BENCH_*.json document (per-event kernel cost,
// sweep wall-clock, the live-network message path over loopback TCP,
// the sharded parallel kernel's scaling on 50x50, mobile 50x50 and
// 100x100 grids, and giant-grid scale on 500x500/1000x1000 lattices,
// all with per-run trajectory hashes; see DESIGN.md §9, §9.5 and
// §9.6). -bench-quick shrinks the workload for CI smoke; -bench-only
// selects sections; -bench-out writes the JSON to a file; -workers
// bounds the sweep pool.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/policy"
	"repro/internal/scenario"
)

func main() {
	var (
		config       = flag.String("config", "", "load scenario from this JSON file (flags below are ignored)")
		scheme       = flag.String("scheme", "adaptive", "allocation scheme: "+strings.Join(adca.Schemes(), ", "))
		width        = flag.Int("width", 7, "grid width (cells)")
		height       = flag.Int("height", 0, "grid height (0 = width)")
		reuse        = flag.Int("reuse", 2, "co-channel reuse distance (cells)")
		wrap         = flag.Bool("wrap", true, "wrap the grid toroidally (no boundary effects)")
		channels     = flag.Int("channels", 70, "spectrum size")
		latency      = flag.Int64("latency", 10, "one-way message latency T (ticks)")
		erlang       = flag.Float64("erlang", 5, "offered load per cell (Erlang)")
		hotErlang    = flag.Float64("hot-erlang", 0, "hot-cell offered load (0 = no hotspot)")
		handoff      = flag.Float64("handoff", 0, "per-call handoff rate (events/tick)")
		hold         = flag.Float64("hold", 3000, "mean call duration (ticks)")
		duration     = flag.Int64("duration", 200_000, "arrival window (ticks)")
		warmup       = flag.Int64("warmup", 20_000, "warmup excluded from stats (ticks)")
		warmStart    = flag.Bool("warm-start", false, "seed stationary Erlang occupancy before tick 0 (skip the ramp-up transient)")
		drainHorizon = flag.Int64("drain-horizon", 0, "truncate the post-duration drain this many ticks after duration, force-releasing held calls (0 = drain to quiescence)")
		seed         = flag.Uint64("seed", 1, "random seed (runs are deterministic per seed)")
		check        = flag.Bool("check", true, "verify the interference invariant on every grant")
		shards       = flag.Int("shards", 0, "run on the sharded parallel driver with this many shards (0 = serial)")
		predictor    = flag.String("predictor", "", `adaptive NFC predictor "name[,key=val...]": `+strings.Join(adca.Predictors(), ", "))
		lender       = flag.String("lender", "", `adaptive lender strategy "name[,key=val...]": `+strings.Join(adca.LenderStrategies(), ", "))

		metricsAddr = flag.String("metrics", "", "serve Prometheus text metrics at this address (e.g. :9090)")
		journalPath = flag.String("journal", "", "write a JSONL event journal to this file")
		linger      = flag.Duration("linger", 0, "keep the metrics endpoint up this long after the report")

		bench      = flag.Bool("bench", false, "run the performance harness instead of a scenario; emit JSON")
		benchQuick = flag.Bool("bench-quick", false, "with -bench: shorter runs (CI smoke)")
		benchOut   = flag.String("bench-out", "", "with -bench: write the JSON here instead of stdout")
		benchOnly  = flag.String("bench-only", "", "with -bench: run only these comma-separated sections ("+strings.Join(experiments.BenchSections, ",")+")")
		workers    = flag.Int("workers", 0, "with -bench: sweep pool width; with -shards: kernel worker goroutines (0 = NumCPU)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file after the run (after a GC, the network still live)")
		execTrace  = flag.String("exectrace", "", "write a runtime/trace execution trace of the run to this file")
	)
	flag.Parse()
	stopCPU, stopTrace := startCPUProfile(*cpuProfile), startExecTrace(*execTrace)
	stopProfiles := func() { stopCPU(); stopTrace() }
	if *bench {
		runBench(*workers, *benchQuick, *benchOnly, *benchOut)
		stopProfiles()
		return
	}
	if *height == 0 {
		*height = *width
	}
	sc := adca.Scenario{
		Scheme:            *scheme,
		GridWidth:         *width,
		GridHeight:        *height,
		ReuseDistance:     *reuse,
		Wrap:              *wrap,
		Channels:          *channels,
		LatencyTicks:      *latency,
		Seed:              *seed,
		CheckInterference: *check,
	}
	w := adca.Workload{
		ErlangPerCell:     *erlang,
		MeanHoldTicks:     *hold,
		HandoffRate:       *handoff,
		DurationTicks:     *duration,
		WarmupTicks:       *warmup,
		Seed:              *seed,
		WarmStart:         *warmStart,
		DrainHorizonTicks: *drainHorizon,
	}
	hotRadius := 0
	if *config != "" {
		file, err := scenario.Load(*config)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sc = adca.Scenario{
			Scheme:        file.Scheme,
			GridWidth:     file.Grid.Width,
			GridHeight:    file.Grid.Height,
			ReuseDistance: file.Grid.ReuseDistance,
			Wrap:          file.Grid.Wrap,
			Channels:      file.Channels,
			LatencyTicks:  file.LatencyTicks,
			JitterTicks:   file.JitterTicks,
			Seed:          file.Seed,
			MaxRounds:     file.MaxRounds,
			// Honor -check so giant-grid scenarios can skip the O(cells ×
			// neighbors) invariant sweep at every window barrier; the
			// default keeps config runs checked.
			CheckInterference: *check,
		}
		if a := file.Adaptive; a != nil {
			sc.Adaptive = &adca.AdaptiveParams{
				ThetaLow: a.ThetaLow, ThetaHigh: a.ThetaHigh,
				Alpha: a.Alpha, WindowTicks: a.WindowTicks,
			}
		}
		if p := file.Predictor; p != nil {
			sc.Predictor = &adca.PolicySpec{Name: p.Name, Params: p.Params}
		}
		if l := file.Lender; l != nil {
			sc.Lender = &adca.PolicySpec{Name: l.Name, Params: l.Params}
		}
		w = adca.Workload{Seed: file.Seed}
		if wl := file.Workload; wl != nil {
			w.ErlangPerCell = wl.ErlangPerCell
			w.MeanHoldTicks = wl.MeanHoldTicks
			w.HandoffRate = wl.HandoffRate
			w.DurationTicks = wl.DurationTicks
			w.WarmupTicks = wl.WarmupTicks
			// -warm-start also works as an override on top of a file.
			w.WarmStart = wl.WarmStart || *warmStart
			// -drain-horizon likewise overrides the file when set.
			w.DrainHorizonTicks = wl.DrainHorizonTicks
			if *drainHorizon != 0 {
				w.DrainHorizonTicks = *drainHorizon
			}
			if h := wl.Hotspot; h != nil {
				w.HotErlang = h.Erlang
				hotRadius = h.Radius
			}
			for _, p := range wl.Phases {
				center := -1 // grid interior unless the file pins a cell
				if p.CenterCell != nil {
					center = *p.CenterCell
				}
				w.Phases = append(w.Phases, adca.WorkloadPhase{
					HotCell:    center,
					HotRadius:  p.Radius,
					HotErlang:  p.Erlang,
					StartTicks: p.StartTicks,
					EndTicks:   p.EndTicks,
				})
			}
			if d := wl.Diurnal; d != nil {
				w.Diurnal = &adca.DiurnalCycle{Swing: d.Swing, PeriodTicks: d.PeriodTicks}
			}
		}
	}
	// Policy flags override the scenario file: the point of the seam is
	// re-running a checked-in scenario under a different policy pair.
	if *predictor != "" {
		spec, err := policy.ParseSpec(*predictor)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sc.Predictor = &adca.PolicySpec{Name: spec.Name, Params: spec.Params}
	}
	if *lender != "" {
		spec, err := policy.ParseSpec(*lender)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sc.Lender = &adca.PolicySpec{Name: spec.Name, Params: spec.Params}
	}
	if *hotErlang > 0 && *config == "" {
		w.HotErlang = *hotErlang
	}
	if w.HotErlang > 0 {
		w.HotCell = -1 // grid interior
		w.HotRadius = hotRadius
	}
	if *shards > 0 {
		// Sharded parallel run: same trajectory as the serial driver
		// (bit-identical stats at any shard/worker count), minus the
		// serial-only observability sinks.
		if *metricsAddr != "" || *journalPath != "" {
			fmt.Fprintln(os.Stderr, "chansim: -metrics/-journal need the serial driver (drop -shards)")
			os.Exit(1)
		}
		pnet, err := adca.NewParallel(sc, adca.WithShards(*shards), adca.WithWorkers(*workers))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ws, err := pnet.RunWorkload(w)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		stopProfiles()
		writeHeapProfile(*memProfile, pnet)
		st := pnet.Stats()
		scheme := sc.Scheme
		if scheme == "" {
			scheme = "adaptive"
		}
		fmt.Printf("driver            parallel (%d shards)\n", *shards)
		printReport(scheme, ws, st, sc.LatencyTicks)
		printKernel(pnet.KernelFootprint())
		return
	}
	if *metricsAddr != "" || *journalPath != "" {
		oc := &adca.ObsConfig{MetricsAddr: *metricsAddr}
		if *journalPath != "" {
			jf, err := os.Create(*journalPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer jf.Close()
			oc.Journal = jf
		}
		sc.Obs = oc
	}
	net, err := adca.New(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer net.Close()
	if addr := net.MetricsAddr(); addr != "" {
		fmt.Printf("metrics           http://%s/metrics\n", addr)
	}
	ws, err := net.RunWorkload(w)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := net.CheckInterference(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	stopProfiles()
	writeHeapProfile(*memProfile, net)
	fmt.Printf("cells / channels  %d / %d\n", net.NumCells(), net.NumChannels())
	printReport(net.Scheme(), ws, net.Stats(), sc.LatencyTicks)
	printKernel(net.KernelFootprint())
	if addr := net.MetricsAddr(); addr != "" && *linger > 0 {
		fmt.Printf("metrics           lingering at http://%s/metrics for %v\n", addr, *linger)
		time.Sleep(*linger)
	}
}

// printReport renders the common scenario report: telephony outcomes
// (including handoff drops, merged across shards on the parallel
// driver), latency in units of T, message overhead and the adaptive
// path mix.
func printReport(scheme string, ws adca.WorkloadStats, st adca.Stats, latencyTicks int64) {
	fmt.Printf("scheme            %s\n", scheme)
	fmt.Printf("offered calls     %d\n", ws.Offered)
	fmt.Printf("blocking          %.4f\n", ws.BlockingProbability)
	if ws.HandoffAttempts > 0 {
		fmt.Printf("handoff drops     %.4f (%d attempts)\n", ws.HandoffDropProbability, ws.HandoffAttempts)
	}
	tUnit := float64(latencyTicks)
	if tUnit == 0 {
		tUnit = 10
	}
	fmt.Printf("acq time (mean)   %.2f T\n", st.MeanAcquireTicks/tUnit)
	fmt.Printf("acq time (p95)    %.2f T\n", st.P95AcquireTicks/tUnit)
	fmt.Printf("messages/call     %.2f\n", st.MessagesPerRequest)
	grants := st.LocalGrants + st.UpdateGrants + st.SearchGrants
	if grants > 0 && scheme == "adaptive" {
		fmt.Printf("path mix          ξ1=%.3f ξ2=%.3f ξ3=%.3f\n",
			float64(st.LocalGrants)/float64(grants),
			float64(st.UpdateGrants)/float64(grants),
			float64(st.SearchGrants)/float64(grants))
	}
	fmt.Printf("invariant         ok (no co-channel interference)\n")
}

// printKernel renders the event kernel's own account of what it holds.
func printKernel(f adca.KernelFootprint) {
	const mb = 1 << 20
	fmt.Printf("kernel memory     heap %.1f MB (%d pages), attachments %.1f MB (%d pages), funcs %.1f MB, routes %.1f MB\n",
		float64(f.HeapBytes)/mb, f.HeapPages, float64(f.AttBytes)/mb, f.AttPages, float64(f.SideBytes)/mb, float64(f.RouteBytes)/mb)
	fmt.Printf("kernel queue      peak %d records for %d events pending; %d records popped\n",
		f.PeakRecords, f.PeakEvents, f.Pops)
}

// startExecTrace starts a runtime/trace execution trace into path and
// returns the function that finishes it; with no path both do nothing.
func startExecTrace(path string) (stop func()) {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err == nil {
		err = trace.Start(f)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "chansim: -exectrace:", err)
		os.Exit(1)
	}
	return func() {
		trace.Stop()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "chansim: -exectrace:", err)
			os.Exit(1)
		}
	}
}

// startCPUProfile starts a CPU profile into path and returns the
// function that finishes it; with no path both do nothing.
func startCPUProfile(path string) (stop func()) {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err == nil {
		err = pprof.StartCPUProfile(f)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "chansim: -cpuprofile:", err)
		os.Exit(1)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "chansim: -cpuprofile:", err)
			os.Exit(1)
		}
	}
}

// writeHeapProfile writes the heap profile to path (none if empty). It
// collects first, so the profile is the settled heap, and keeps network
// reachable across the write, so that heap still holds the simulator.
func writeHeapProfile(path string, network any) {
	if path == "" {
		return
	}
	runtime.GC()
	f, err := os.Create(path)
	if err == nil {
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "chansim: -memprofile:", err)
		os.Exit(1)
	}
	runtime.KeepAlive(network)
}

// runBench drives the measurement harness and writes the JSON report.
func runBench(workers int, quick bool, only, out string) {
	rep, err := experiments.RunBenchOnly(workers, quick, only)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data, err := experiments.MarshalReport(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench report written to %s\n", out)
}
