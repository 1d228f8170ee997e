package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	adca "repro"
	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/message"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// Radio parameters shared by the three DES workloads (the scale
// bench's: reuse distance 2, 70 channels = 10 primaries per cell,
// message latency 10 ticks, mean call hold 3000 ticks).
const (
	desReuse    = 2
	desChannels = 70
	desLatency  = 10
	desMeanHold = 3000.0
)

type kind int

const (
	kindSharded kind = iota // driver.NewParallel + traffic.PrimeParallel/Finish
	kindSerial              // adca.New + Network.RunWorkload (public API)
	kindTCP                 // two netrun.Nodes on loopback
)

// params sizes one workload. Every field is a fixed input; only the
// seed varies between invocations.
type params struct {
	width, height   int
	shards, workers int
	// erlang is the offered load per cell; hotErlang > 0 adds the five
	// radius-2 hot zones of the scale bench's steady profile.
	erlang, hotErlang float64
	handoff           float64
	duration, warmup  sim.Time
	warmStart         bool
	drainHorizon      sim.Time
	// rounds is the closed-loop length of tcp-borrow.
	rounds int
}

// workload is one row of the benchmark's workload table.
type workload struct {
	name string
	// why says which layers the workload loads and which it leaves idle.
	why  string
	kind kind
	// seed is the default; golden.json pins the trajectory hash for it.
	seed uint64
	// reps is the number of measured repetitions of a full report.
	reps int
	// setups is how many times one repetition sets up; setup_s is their
	// median. One where a set-up takes seconds, several where it takes
	// milliseconds and a single sample would be scheduler noise.
	setups    int
	full, toy params
}

var workloads = []workload{
	{
		name: "steady-sharded",
		why:  "warm 300x300 hot-spot grid on 64 shards: kernel heaps, traffic generator, warm-start and per-cell memory dominate; protocol is light",
		kind: kindSharded, seed: 101, reps: 6, setups: 1,
		full: params{width: 300, height: 300, shards: 64, workers: 2, erlang: 9, hotErlang: 13.5,
			duration: 900, warmup: 180, warmStart: true, drainHorizon: 100},
		toy: params{width: 12, height: 12, shards: 4, workers: 2, erlang: 9, hotErlang: 13.5,
			duration: 300, warmup: 60, warmStart: true, drainHorizon: 100},
	},
	{
		name: "overload-sharded",
		why:  "60x60 grid at 100% of its primaries on 16 shards: core handlers, chanset algebra, defer queues, cross-shard flush and thin-window barriers dominate; traffic and memory are idle",
		kind: kindSharded, seed: 101, reps: 5, setups: 5,
		full: params{width: 60, height: 60, shards: 16, workers: 2, erlang: 10, duration: 20000, warmup: 4000},
		toy:  params{width: 12, height: 12, shards: 4, workers: 2, erlang: 10, duration: 3000, warmup: 600},
	},
	{
		name: "light-mobile-serial",
		why:  "120x120 grid at 20% load with handoffs through the public serial API, checker on: serial kernel, driver, generator, mobility and checker are the cost; core sends almost nothing, sharded code is idle",
		kind: kindSerial, seed: 3, reps: 5, setups: 5,
		full: params{width: 120, height: 120, erlang: 2, handoff: 0.0003, duration: 60000, warmup: 10000},
		toy:  params{width: 12, height: 12, erlang: 2, handoff: 0.0003, duration: 6000, warmup: 1000},
	},
	{
		name: "tcp-borrow",
		why:  "closed loop, 1 client, borrow+release rounds between two nodes on loopback TCP: the only workload touching codec, transport, sockets and netrun; the DES layers are idle",
		kind: kindTCP, seed: 1, reps: 3, setups: 9,
		full: params{rounds: 60000},
		toy:  params{rounds: 500},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// repOpts are the knobs one repetition can vary; the zero value is the
// measured, untraced configuration.
type repOpts struct {
	toy    bool
	traced bool
	outDir string
	// workers overrides params.workers when > 0 (the workers=1 run
	// behind sim.shards.speedup_w2).
	workers int
	// scheme and noCheck vary light-mobile-serial for
	// traffic.fixed_ns_per_call and trace.checker_share.
	scheme  string
	noCheck bool
}

// repResult is what one child process reports for one repetition.
type repResult struct {
	SetupS float64 `json:"setup_s"`
	RunS   float64 `json:"run_s"`
	// Attempted/Failed count operations: one per DES repetition, one
	// per tcp-borrow round. Error describes the first failure.
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	Error     string `json:"error,omitempty"`
	// Hash is the trajectory hash of a DES repetition.
	Hash string `json:"hash,omitempty"`

	Cells    int            `json:"cells,omitempty"`
	Offered  uint64         `json:"offered,omitempty"`
	Requests uint64         `json:"requests,omitempty"`
	Messages uint64         `json:"messages,omitempty"`
	Counters alloc.Counters `json:"counters"`

	// Kernel counts and per-kind messages need the internal accessors,
	// so the public-API repetition of light-mobile-serial leaves them 0
	// and its traced repetition fills them.
	Events    uint64                   `json:"events,omitempty"`
	Windows   uint64                   `json:"windows,omitempty"`
	MaxRoutes int                      `json:"max_routes,omitempty"`
	ByKind    [message.NumKinds]uint64 `json:"by_kind"`
	// CrossFrac is the share of (cell, interference neighbour) pairs
	// that straddle a shard boundary: the reconciliation's estimate of
	// how many protocol messages are boxed cross-shard events.
	CrossFrac float64 `json:"cross_frac,omitempty"`

	// tcp-borrow.
	Rounds     uint64  `json:"rounds,omitempty"`
	RoundP50Us float64 `json:"round_p50_us,omitempty"`
	RoundP99Us float64 `json:"round_p99_us,omitempty"`
	WireMsgs   uint64  `json:"wire_msgs,omitempty"`
	WireBytes  uint64  `json:"wire_bytes,omitempty"`

	// Allocs is the heap-object count allocated inside the timed run and
	// GCCPUFrac the share of non-idle CPU the collector took over it.
	// Both come from runtime/metrics reads outside the timed region.
	Allocs    uint64  `json:"allocs"`
	GCCPUFrac float64 `json:"gc_cpu_frac"`

	Trace *traceResult `json:"trace,omitempty"`
}

// traceResult is the extra a traced repetition collects.
type traceResult struct {
	Spans map[string]spanTotal `json:"spans"`
	// RunPhaseS/DrainPhaseS split Finish at the barrier where the
	// slowest shard clock passed Duration (sharded workloads only).
	RunPhaseS   float64 `json:"run_phase_s,omitempty"`
	DrainPhaseS float64 `json:"drain_phase_s,omitempty"`
	// HeapLiveBytes is runtime/metrics' live heap, read at the first
	// barrier past the middle of the measured window.
	HeapLiveBytes uint64 `json:"heap_live_bytes,omitempty"`
}

// prepared is a workload that has been set up and not yet run.
type prepared interface {
	// run executes the timed region and the untimed checks after it.
	run(tr *tracer) (repResult, error)
	// close releases what the set-up holds open.
	close()
}

// prepare performs one set-up of w: everything setup_s covers.
func prepare(w workload, p params, seed uint64, o repOpts, tr *tracer) (prepared, error) {
	switch {
	case w.kind == kindSharded:
		return prepareSharded(p, seed, tr)
	case w.kind == kindTCP:
		return prepareTCP(p, seed, tr)
	case o.traced:
		return prepareSerialTraced(p, seed, tr)
	default:
		return prepareSerial(p, seed, o)
	}
}

// runRep executes one repetition in this process: one set-up, the timed
// run, the checks — and then, where set-up takes milliseconds, further
// timed set-ups that are thrown away, so that setup_s is a median
// rather than one scheduler-sized sample. They come after the run so
// the measured run is exactly a plain single run.
func runRep(w workload, seed uint64, o repOpts) (repResult, error) {
	p := w.full
	if o.toy {
		p = w.toy
	}
	if o.workers > 0 {
		p.workers = o.workers
	}
	var tr *tracer
	if o.traced {
		tr = newTracer(w.name)
	}
	t0 := time.Now()
	ready, err := prepare(w, p, seed, o, tr)
	setups := []float64{time.Since(t0).Seconds()}
	if err != nil {
		return repResult{}, err
	}
	res, err := ready.run(tr)
	ready.close()
	if err != nil {
		return repResult{}, err
	}
	for i := 1; i < w.setups; i++ {
		t0 := time.Now()
		again, err := prepare(w, p, seed, o, nil)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return repResult{}, err
		}
		again.close()
	}
	res.SetupS = median(setups)
	if tr != nil {
		res.Trace.Spans = tr.totals()
		if err := tr.write(o.outDir); err != nil {
			return repResult{}, err
		}
	}
	return res, nil
}

// needTwoProcs refuses the sharded workloads on a host that cannot run
// two shard workers at once: every figure they produce (run_s, the
// speedup, the barrier cost) would be one core time-slicing.
func needTwoProcs(name string) error {
	if n := runtime.GOMAXPROCS(0); n < 2 {
		return fmt.Errorf("workload %s runs 2 shard workers and needs GOMAXPROCS >= 2 (have %d on %d CPUs): a parallel run measured on one core is not a measurement", name, n, runtime.NumCPU())
	}
	return nil
}

// desFailure turns a broken DES repetition (error, invariant violation,
// non-quiescence) into one failed operation rather than a dead harness.
func desFailure(res repResult, what string, err error) repResult {
	res.Attempted, res.Failed = 1, 1
	res.Error = fmt.Sprintf("%s: %v", what, err)
	return res
}

// gridAndPlan builds a wrapped reuse-2 grid and its primary-channel
// plan, each under its own span.
func gridAndPlan(width, height, channels int, tr *tracer) (*hexgrid.Grid, *chanset.Assignment, error) {
	end := tr.begin("hexgrid.New")
	grid, err := hexgrid.New(hexgrid.Config{
		Shape: hexgrid.Rect, Width: width, Height: height, ReuseDistance: desReuse, Wrap: true,
	})
	end()
	if err != nil {
		return nil, nil, err
	}
	end = tr.begin("chanset.Assign")
	assign, err := chanset.Assign(grid, channels)
	end()
	return grid, assign, err
}

// profileSpec is the workload's load shape: uniform, plus — when
// hotErlang is set — the scale bench's five stationary hot zones at the
// quarter points and the centre.
func profileSpec(p params) traffic.ProfileSpec {
	ps := traffic.ProfileSpec{BaseRate: p.erlang / desMeanHold}
	if p.hotErlang == 0 {
		return ps
	}
	w, h := p.width, p.height
	for _, c := range [][2]int{{w / 4, h / 4}, {3 * w / 4, h / 4}, {w / 4, 3 * h / 4}, {3 * w / 4, 3 * h / 4}, {w / 2, h / 2}} {
		ps.Phases = append(ps.Phases, traffic.PhaseSpec{
			Center: hexgrid.CellID(c[1]*w + c[0]), Radius: 2,
			Rate: p.hotErlang / desMeanHold, Start: 0, End: p.duration + 1,
		})
	}
	return ps
}

func trafficSpec(p params, seed uint64, profile traffic.Profile) traffic.Spec {
	return traffic.Spec{
		Profile: profile, MeanHold: desMeanHold, HandoffRate: p.handoff,
		Duration: p.duration, Warmup: p.warmup, Seed: seed,
		WarmStart: p.warmStart, DrainHorizon: p.drainHorizon,
	}
}

// desParts is the construction every DES set-up shares, each call into
// a layer under its own span.
func desParts(p params, tr *tracer) (*hexgrid.Grid, *chanset.Assignment, alloc.Factory, error) {
	grid, assign, err := gridAndPlan(p.width, p.height, desChannels, tr)
	if err != nil {
		return nil, nil, nil, err
	}
	end := tr.begin("registry.Build")
	factory, err := registry.Build("adaptive", grid, assign, registry.Config{Latency: desLatency})
	end()
	return grid, assign, factory, err
}

// shardedRun is a primed sharded workload.
type shardedRun struct {
	grid   *hexgrid.Grid
	d      *driver.Parallel
	spec   traffic.Spec
	primed *traffic.PrimedParallel
}

func prepareSharded(p params, seed uint64, tr *tracer) (prepared, error) {
	grid, assign, factory, err := desParts(p, tr)
	if err != nil {
		return nil, err
	}
	end := tr.begin("driver.NewParallel")
	d, err := driver.NewParallel(grid, assign, factory, driver.ParallelOptions{
		Latency: desLatency, Seed: seed, Shards: p.shards, Workers: p.workers, TraceSize: tr.ringSize(),
	})
	end()
	if err != nil {
		return nil, err
	}
	end = tr.begin("traffic.BuildProfile")
	profile, err := traffic.BuildProfile(grid, profileSpec(p))
	end()
	if err != nil {
		return nil, err
	}
	spec := trafficSpec(p, seed, profile)
	end = tr.begin("traffic.PrimeParallel")
	primed, err := traffic.PrimeParallel(d, spec)
	end()
	if err != nil {
		return nil, err
	}
	return &shardedRun{grid: grid, d: d, spec: spec, primed: primed}, nil
}

func (s *shardedRun) close() {}

// run times Finish. Tracing (tr != nil) adds a barrier hook that stamps
// the run/drain split and reads the live heap; an untraced run installs
// no hook.
func (s *shardedRun) run(tr *tracer) (repResult, error) {
	res := repResult{Cells: s.grid.NumCells()}
	d, spec, kern := s.d, s.spec, s.d.Kernel()
	var runEnded time.Time
	if tr != nil {
		res.Trace = &traceResult{}
		heapAt := (spec.Warmup + spec.Duration) / 2
		kern.SetBarrier(func() {
			var now sim.Time
			for i := 0; i < kern.NumShards(); i++ {
				if t := kern.Now(i); t > now {
					now = t
				}
			}
			if res.Trace.HeapLiveBytes == 0 && now >= heapAt {
				res.Trace.HeapLiveBytes = uint64(readMetric("/gc/heap/live:bytes"))
			}
			if runEnded.IsZero() && now >= spec.Duration {
				runEnded = time.Now()
			}
		})
	}

	before := readRunCounters()
	end := tr.begin("traffic.Finish")
	t1 := time.Now()
	ts, err := s.primed.Finish()
	t2 := time.Now()
	res.RunS = t2.Sub(t1).Seconds()
	if !runEnded.IsZero() {
		tr.add("run phase", t1, runEnded)
		tr.add("drain phase", runEnded, t2)
		res.Trace.RunPhaseS = runEnded.Sub(t1).Seconds()
		res.Trace.DrainPhaseS = t2.Sub(runEnded).Seconds()
	}
	end()
	before.finish(&res)
	if err != nil {
		return desFailure(res, "traffic.Finish", err), nil
	}

	end = tr.begin("driver.CheckInvariant")
	err = d.CheckInvariant()
	end()
	if err != nil {
		return desFailure(res, "invariant", err), nil
	}
	if n := d.Outstanding(); n != 0 {
		return desFailure(res, "quiescence", fmt.Errorf("%d requests outstanding", n)), nil
	}
	end = tr.begin("driver.Stats")
	st := d.Stats()
	end()
	if tr != nil {
		end = tr.begin("driver.Trace")
		_ = d.Trace()
		end()
	}

	res.Events, res.Windows = kern.Executed(), kern.Windows()
	for i := 0; i < kern.NumShards(); i++ {
		if r := kern.Routes(i); r > res.MaxRoutes {
			res.MaxRoutes = r
		}
	}
	res.CrossFrac = crossFraction(s.grid, d.Partition())
	res.ByKind = st.Messages.ByKind
	fillOutcome(&res, outcomeOf(st, ts), st.CellGrants, st.CellDenies, ts.PerCellOffered, ts.PerCellBlocked)
	return res, nil
}

// crossFraction is the share of (cell, interference neighbour) pairs
// whose ends sit in different shards.
func crossFraction(grid *hexgrid.Grid, part *hexgrid.Partition) float64 {
	var cross, total int
	for c := 0; c < grid.NumCells(); c++ {
		home := part.ShardOf(hexgrid.CellID(c))
		for _, n := range grid.Interference(hexgrid.CellID(c)) {
			total++
			if part.ShardOf(n) != home {
				cross++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(cross) / float64(total)
}

// serialRun is light-mobile-serial through the public API only:
// adca.New, then Network.RunWorkload.
type serialRun struct {
	net *adca.Network
	wl  adca.Workload
}

func prepareSerial(p params, seed uint64, o repOpts) (prepared, error) {
	n, err := adca.New(adca.Scenario{
		Scheme: o.scheme, GridWidth: p.width, GridHeight: p.height, ReuseDistance: desReuse, Wrap: true,
		Channels: desChannels, LatencyTicks: desLatency, Seed: seed, CheckInterference: !o.noCheck,
	})
	if err != nil {
		return nil, err
	}
	return &serialRun{net: n, wl: adca.Workload{
		ErlangPerCell: p.erlang, MeanHoldTicks: desMeanHold, HandoffRate: p.handoff,
		DurationTicks: int64(p.duration), WarmupTicks: int64(p.warmup), Seed: seed,
	}}, nil
}

func (s *serialRun) close() {}

func (s *serialRun) run(*tracer) (repResult, error) {
	n := s.net
	res := repResult{Cells: n.NumCells()}
	before := readRunCounters()
	t1 := time.Now()
	ws, err := n.RunWorkload(s.wl)
	res.RunS = time.Since(t1).Seconds()
	before.finish(&res)
	if err != nil {
		return desFailure(res, "RunWorkload", err), nil
	}
	if err := n.CheckInterference(); err != nil {
		return desFailure(res, "invariant", err), nil
	}
	st := n.Stats()
	fillOutcome(&res, outcome{
		Grants: st.Grants, Denies: st.Denies, Messages: st.Messages,
		Counters: alloc.Counters{
			GrantsLocal: st.LocalGrants, GrantsUpdate: st.UpdateGrants, GrantsSearch: st.SearchGrants,
			Drops: st.ProtocolDenies, UpdateAttempts: st.UpdateAttempts, ModeChanges: st.ModeChanges,
			BadReleases: st.BadReleases, Deferred: st.Deferred,
		},
		MeanAcquire: st.MeanAcquireTicks, P95Acquire: st.P95AcquireTicks,
		Offered: ws.Offered, Blocked: ws.Blocked, HandoffAttempts: ws.HandoffAttempts, HandoffDrops: ws.HandoffDrops,
	})
	return res, nil
}

// serialTracedRun is light-mobile-serial built from the pieces adca.New
// and RunWorkload assemble, so each can carry a span and the kernel's
// event count and per-kind message counts can be read. It must produce
// serialRun's trajectory hash; the harness checks that.
type serialTracedRun struct {
	grid *hexgrid.Grid
	d    *driver.Sim
	p    params
	seed uint64
}

func prepareSerialTraced(p params, seed uint64, tr *tracer) (prepared, error) {
	grid, assign, factory, err := desParts(p, tr)
	if err != nil {
		return nil, err
	}
	end := tr.begin("driver.New")
	d := driver.New(grid, assign, factory, driver.Options{Latency: desLatency, Seed: seed, Check: true, TraceSize: tr.ringSize()})
	end()
	return &serialTracedRun{grid: grid, d: d, p: p, seed: seed}, nil
}

func (s *serialTracedRun) close() {}

func (s *serialTracedRun) run(tr *tracer) (repResult, error) {
	d := s.d
	res := repResult{Cells: s.grid.NumCells(), Trace: &traceResult{}}
	before := readRunCounters()
	t1 := time.Now()
	// RunWorkload builds the profile inside its timed region, so this
	// does too.
	end := tr.begin("traffic.BuildProfile")
	profile, err := traffic.BuildProfile(s.grid, profileSpec(s.p))
	end()
	if err != nil {
		return res, err
	}
	end = tr.begin("traffic.Run")
	ts, err := traffic.Run(d, trafficSpec(s.p, s.seed, profile))
	end()
	res.RunS = time.Since(t1).Seconds()
	before.finish(&res)
	if err != nil {
		return desFailure(res, "traffic.Run", err), nil
	}
	end = tr.begin("driver.CheckInvariant")
	err = d.CheckInvariant()
	end()
	if err != nil {
		return desFailure(res, "invariant", err), nil
	}
	end = tr.begin("driver.Stats")
	st := d.Stats()
	end()
	end = tr.begin("driver.Trace")
	_ = d.Trace()
	end()

	res.Events = d.Engine().Executed()
	res.ByKind = st.Messages.ByKind
	fillOutcome(&res, outcomeOf(st, ts))
	return res, nil
}

// outcome is the set of run statistics both the internal drivers and
// the public API expose; the trajectory hash digests it.
type outcome struct {
	Grants, Denies, Messages                        uint64
	Counters                                        alloc.Counters
	MeanAcquire, P95Acquire                         float64
	Offered, Blocked, HandoffAttempts, HandoffDrops uint64
}

func outcomeOf(st driver.Stats, ts traffic.Stats) outcome {
	return outcome{
		Grants: st.Grants, Denies: st.Denies, Messages: st.Messages.Total,
		Counters:    st.Counters,
		MeanAcquire: st.AcqDelay.Mean(), P95Acquire: st.DelayP95,
		Offered: ts.Offered, Blocked: ts.Blocked, HandoffAttempts: ts.HandoffAttempts, HandoffDrops: ts.HandoffDrops,
	}
}

// fillOutcome copies the outcome into the result and hashes it. The
// sharded workloads add their per-cell tallies, which the public API
// does not expose.
func fillOutcome(res *repResult, oc outcome, perCell ...[]uint64) {
	res.Attempted = 1
	res.Offered = oc.Offered
	res.Requests = oc.Grants + oc.Denies
	res.Messages = oc.Messages
	res.Counters = oc.Counters
	h := sha256.New()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	c := oc.Counters
	put(oc.Grants, oc.Denies, oc.Messages,
		c.GrantsLocal, c.GrantsUpdate, c.GrantsSearch, c.Drops, c.UpdateAttempts, c.ModeChanges, c.BadReleases, c.Deferred,
		math.Float64bits(oc.MeanAcquire), math.Float64bits(oc.P95Acquire),
		oc.Offered, oc.Blocked, oc.HandoffAttempts, oc.HandoffDrops)
	for _, s := range perCell {
		put(uint64(len(s)))
		put(s...)
	}
	res.Hash = hex.EncodeToString(h.Sum(nil))
}

// runCounters snapshots the allocation and GC-CPU counters around a
// timed run. They come from runtime/metrics, so nothing here stops the
// world, and they are read outside the timed region.
type runCounters struct {
	allocs, gcCPU, totCPU, idlCPU float64
}

func readRunCounters() runCounters {
	return runCounters{
		allocs: readMetric("/gc/heap/allocs:objects"),
		gcCPU:  readMetric("/cpu/classes/gc/total:cpu-seconds"),
		totCPU: readMetric("/cpu/classes/total:cpu-seconds"),
		idlCPU: readMetric("/cpu/classes/idle:cpu-seconds"),
	}
}

func (b runCounters) finish(res *repResult) {
	a := readRunCounters()
	res.Allocs = uint64(a.allocs - b.allocs)
	if busy := (a.totCPU - b.totCPU) - (a.idlCPU - b.idlCPU); busy > 0 {
		res.GCCPUFrac = (a.gcCPU - b.gcCPU) / busy
	}
}

// readMetric reads one runtime/metrics counter or gauge.
func readMetric(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	}
	return 0
}
