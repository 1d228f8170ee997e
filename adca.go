// Package adca (Adaptive Distributed Channel Allocation) is the public
// face of this reproduction of Kahol, Khurana, Gupta & Srimani,
// "Adaptive Distributed Dynamic Channel Allocation for Wireless
// Networks" (ICPP Workshop on Wireless Networks and Mobile Computing,
// 1998; CSU TR CS-98-105).
//
// A Network is a simulated cellular system: a hexagonal grid of cells,
// each run by a mobile service station executing a distributed channel
// allocation scheme over a message transport with latency T. Six
// schemes are available: the paper's adaptive hybrid ("adaptive"), the
// comparison baselines ("fixed", "basic-search", "basic-update",
// "advanced-update") and the allocated-set search of Prakash et al.
// that §6 compares against ("allocated-search").
//
// Quick start:
//
//	net, _ := adca.New(adca.Scenario{Scheme: "adaptive", Channels: 70})
//	id := net.Request(3, func(r adca.Result) { fmt.Println(r.Granted, r.Channel) })
//	net.RunUntilIdle()
//	_ = id // matches Result.ID in the callback
//
// Everything is deterministic given Scenario.Seed — including with
// observability enabled (Scenario.Obs): instruments observe the
// protocol but never feed back into it.
package adca

import (
	"fmt"
	"io"

	"repro/internal/chanset"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// Scenario configures a Network. The zero value of each field selects a
// sensible default (a wrapped 7x7 reuse-2 grid, 70 channels, T = 10
// ticks, the adaptive scheme).
type Scenario struct {
	// Scheme selects the allocation algorithm; see Schemes().
	Scheme string
	// GridWidth and GridHeight size the hexagonal cell array.
	GridWidth, GridHeight int
	// ReuseDistance is the co-channel interference radius in cells.
	ReuseDistance int
	// Wrap connects the grid toroidally, removing boundary effects.
	Wrap bool
	// Channels is the number of radio channels in the spectrum.
	Channels int
	// LatencyTicks is the one-way control-message delay T.
	LatencyTicks int64
	// JitterTicks adds uniform extra delay in [0, Jitter] per message.
	JitterTicks int64
	// Seed drives all randomness.
	Seed uint64
	// CheckInterference enables the Theorem-1 invariant checker on
	// every grant (panics on violation).
	CheckInterference bool
	// Adaptive overrides the adaptive scheme's tuning (nil: defaults).
	Adaptive *AdaptiveParams
	// Predictor selects the adaptive scheme's NFC predictor by name
	// (nil: the paper's "linear" predictor). See Predictors().
	Predictor *PolicySpec
	// Lender selects the adaptive scheme's lender-selection strategy by
	// name (nil: the paper's "best"). See LenderStrategies().
	Lender *PolicySpec
	// MaxRounds caps the retries of the update-based baselines.
	MaxRounds int
	// Obs, when non-nil, enables observability: labeled metrics (and
	// optionally a Prometheus endpoint and a JSONL event journal).
	Obs *ObsConfig
}

// ObsConfig enables the observability layer of a Network. The zero
// value collects metrics in memory only (read them with
// Network.Metrics or Network.WriteMetrics).
type ObsConfig struct {
	// MetricsAddr, when non-empty, serves the Prometheus text
	// exposition format over HTTP at this address (e.g. ":9090"; use
	// ":0" for an ephemeral port and read it back with MetricsAddr).
	MetricsAddr string
	// Journal, when non-nil, receives one JSON object per protocol and
	// lifecycle event (JSONL). The writer stays owned by the caller;
	// Network.Close flushes it but does not close it.
	Journal io.Writer
}

// AdaptiveParams are the paper's tuning knobs (θ_l, θ_h, α, W).
type AdaptiveParams struct {
	ThetaLow, ThetaHigh float64
	Alpha               int
	WindowTicks         int64
}

// PolicySpec selects a registered adaptive policy (an NFC predictor or
// a lender-selection strategy) by name, with optional parameters, e.g.
// {Name: "ewma", Params: map[string]float64{"alpha": 0.2}}.
type PolicySpec struct {
	Name   string
	Params map[string]float64
}

func (p *PolicySpec) spec() policy.Spec {
	if p == nil {
		return policy.Spec{}
	}
	return policy.Spec{Name: p.Name, Params: p.Params}
}

// Predictors lists the registered NFC predictor names.
func Predictors() []string { return policy.Predictors() }

// LenderStrategies lists the registered lender-selection strategy names.
func LenderStrategies() []string { return policy.Strategies() }

// RequestID identifies one channel request of a Network. IDs are
// assigned in submission order, starting at 1, and increase
// monotonically across Request and RequestAt.
type RequestID int64

// Result reports one completed channel request.
type Result struct {
	// ID is the identifier Request/RequestAt returned for this request.
	ID RequestID
	// Cell is where the request was made.
	Cell int
	// Granted tells whether a channel was allocated.
	Granted bool
	// Channel is the allocated channel id (-1 when denied).
	Channel int
	// QueueTicks is time spent waiting behind other requests at the
	// station; AcquireTicks is protocol time to acquire.
	QueueTicks, AcquireTicks int64
}

// Schemes lists the available scheme names.
func Schemes() []string { return registry.Names() }

// Network is a running simulated cellular network.
type Network struct {
	sim    *driver.Sim
	scheme string
	nextID RequestID

	reg     *obs.Registry
	journal *obs.Journal
	metrics *obs.Server
}

// validate rejects nonsense field values with descriptive errors before
// they can surface as panics deep inside grid, histogram or predictor
// construction. Zero values are fine (they select defaults); negatives
// and inverted parameter bands are not.
func (sc Scenario) validate() error {
	switch {
	case sc.GridWidth < 0:
		return fmt.Errorf("adca: GridWidth must be >= 0, got %d", sc.GridWidth)
	case sc.GridHeight < 0:
		return fmt.Errorf("adca: GridHeight must be >= 0, got %d", sc.GridHeight)
	case sc.ReuseDistance < 0:
		return fmt.Errorf("adca: ReuseDistance must be >= 0, got %d", sc.ReuseDistance)
	case sc.Channels < 0:
		return fmt.Errorf("adca: Channels must be >= 0, got %d", sc.Channels)
	case sc.LatencyTicks < 0:
		return fmt.Errorf("adca: LatencyTicks must be >= 0, got %d", sc.LatencyTicks)
	case sc.JitterTicks < 0:
		return fmt.Errorf("adca: JitterTicks must be >= 0, got %d", sc.JitterTicks)
	case sc.MaxRounds < 0:
		return fmt.Errorf("adca: MaxRounds must be >= 0, got %d", sc.MaxRounds)
	}
	if p := sc.Adaptive; p != nil {
		switch {
		case p.ThetaLow <= 0:
			return fmt.Errorf("adca: Adaptive.ThetaLow must be > 0, got %v", p.ThetaLow)
		case p.ThetaHigh <= p.ThetaLow:
			return fmt.Errorf("adca: Adaptive.ThetaHigh (%v) must exceed ThetaLow (%v)",
				p.ThetaHigh, p.ThetaLow)
		case p.Alpha < 0:
			return fmt.Errorf("adca: Adaptive.Alpha must be >= 0, got %d", p.Alpha)
		case p.WindowTicks <= 0:
			return fmt.Errorf("adca: Adaptive.WindowTicks must be > 0, got %d", p.WindowTicks)
		}
	}
	return nil
}

// buildParts applies the scenario defaults and constructs the pieces a
// driver is wired from: grid, primary plan and the scheme registry
// config. It returns the defaulted scenario so callers
// read back effective values (latency, scheme).
func buildParts(sc Scenario) (*hexgrid.Grid, *chanset.Assignment, registry.Config, Scenario, error) {
	if err := sc.validate(); err != nil {
		return nil, nil, registry.Config{}, sc, err
	}
	if sc.Scheme == "" {
		sc.Scheme = "adaptive"
	}
	if sc.GridWidth == 0 {
		sc.GridWidth = 7
	}
	if sc.GridHeight == 0 {
		sc.GridHeight = sc.GridWidth
	}
	if sc.ReuseDistance == 0 {
		sc.ReuseDistance = 2
	}
	if sc.Channels == 0 {
		sc.Channels = 70
	}
	if sc.LatencyTicks == 0 {
		sc.LatencyTicks = 10
	}
	// Refuse a grid the event kernel cannot address before building it.
	if err := sim.CheckOrigins(sc.GridWidth * sc.GridHeight); err != nil {
		return nil, nil, registry.Config{}, sc, fmt.Errorf("adca: grid %dx%d: %w", sc.GridWidth, sc.GridHeight, err)
	}
	grid, err := hexgrid.New(hexgrid.Config{
		Shape: hexgrid.Rect,
		Width: sc.GridWidth, Height: sc.GridHeight,
		ReuseDistance: sc.ReuseDistance,
		Wrap:          sc.Wrap,
	})
	if err != nil {
		return nil, nil, registry.Config{}, sc, fmt.Errorf("adca: %w", err)
	}
	assign, err := chanset.Assign(grid, sc.Channels)
	if err != nil {
		return nil, nil, registry.Config{}, sc, fmt.Errorf("adca: %w", err)
	}
	cfg := registry.Config{Latency: sim.Time(sc.LatencyTicks), MaxRounds: sc.MaxRounds}
	if sc.Adaptive != nil {
		cfg.Adaptive = core.Params{
			ThetaLow:  sc.Adaptive.ThetaLow,
			ThetaHigh: sc.Adaptive.ThetaHigh,
			Alpha:     sc.Adaptive.Alpha,
			Window:    sim.Time(sc.Adaptive.WindowTicks),
		}
	}
	// Policy selection rides alongside the scalar tuning; registry.Build
	// keeps the overrides when it derives default scalars.
	if sc.Predictor != nil {
		pb, err := policy.BuildPredictor(sc.Predictor.spec())
		if err != nil {
			return nil, nil, registry.Config{}, sc, fmt.Errorf("adca: %w", err)
		}
		cfg.Adaptive.Predictor = pb
	}
	if sc.Lender != nil {
		ls, err := policy.BuildStrategy(sc.Lender.spec())
		if err != nil {
			return nil, nil, registry.Config{}, sc, fmt.Errorf("adca: %w", err)
		}
		cfg.Adaptive.Strategy = ls
	}
	return grid, assign, cfg, sc, nil
}

// New builds a Network from the scenario on the serial event kernel.
// Options apply on top of the scenario (WithPredictor, WithLender,
// WithObs, ...); a bare New(Scenario{...}) keeps its pre-option behavior
// exactly.
func New(sc Scenario, opts ...Option) (*Network, error) {
	return build(applyOptions(sc, opts), false)
}

// NewParallel builds the same Network on the sharded event kernel:
// WithShards/WithWorkers size it without changing results. Scenario.Obs
// works at any shard count, its Journal with one shard only — records
// from shards running concurrently would interleave by schedule — and is
// a descriptive error with more.
func NewParallel(sc Scenario, opts ...Option) (*Network, error) {
	return build(applyOptions(sc, opts), true)
}

// ParallelNetwork is Network.
type ParallelNetwork = Network

func build(c runConfig, sharded bool) (*Network, error) {
	grid, assign, cfg, sc, err := buildParts(c.sc)
	if err != nil {
		return nil, err
	}
	n := &Network{scheme: sc.Scheme}
	if sc.Obs != nil {
		n.reg = obs.New()
		if sc.Obs.Journal != nil {
			n.journal = obs.NewJournal(sc.Obs.Journal)
		}
		cfg.Obs = obs.NewProtocol(n.reg, n.journal)
	}
	factory, err := registry.Build(sc.Scheme, grid, assign, cfg)
	if err != nil {
		return nil, fmt.Errorf("adca: %w", err)
	}
	dopts := driver.Options{
		Latency: sim.Time(sc.LatencyTicks),
		Jitter:  sim.Time(sc.JitterTicks),
		Seed:    sc.Seed,
		Check:   sc.CheckInterference,
		Obs:     n.reg,
		Journal: n.journal,
		Shards:  c.shards,
		Workers: c.workers,
	}
	if sharded {
		if n.sim, err = driver.NewParallel(grid, assign, factory, dopts); err != nil {
			return nil, fmt.Errorf("adca: %w", err)
		}
	} else {
		n.sim = driver.New(grid, assign, factory, dopts)
	}
	if sc.Obs != nil && sc.Obs.MetricsAddr != "" {
		srv, err := obs.Serve(sc.Obs.MetricsAddr, n.reg)
		if err != nil {
			return nil, fmt.Errorf("adca: metrics endpoint: %w", err)
		}
		n.metrics = srv
	}
	return n, nil
}

// MustNew is New but panics on error (for examples and tests).
func MustNew(sc Scenario, opts ...Option) *Network {
	n, err := New(sc, opts...)
	if err != nil {
		panic(err)
	}
	return n
}

// Scheme returns the running scheme's name.
func (n *Network) Scheme() string { return n.scheme }

// NumCells returns the number of cells.
func (n *Network) NumCells() int { return n.sim.Grid().NumCells() }

// NumChannels returns the spectrum size.
func (n *Network) NumChannels() int { return n.sim.Assignment().NumChannels }

// Primaries returns the primary channel ids of cell.
func (n *Network) Primaries(cell int) []int {
	pr := n.sim.Assignment().Primary[cell]
	out := make([]int, 0, pr.Len())
	for c := pr.First(); c.Valid(); c = pr.Next(c) {
		out = append(out, int(c))
	}
	return out
}

// InterferenceNeighbors returns the cells within the reuse distance of
// cell.
func (n *Network) InterferenceNeighbors(cell int) []int {
	in := n.sim.Grid().Interference(hexgrid.CellID(cell))
	out := make([]int, len(in))
	for i, c := range in {
		out[i] = int(c)
	}
	return out
}

// CenterCell returns an interior cell with a full interference
// neighborhood (a good hotspot center).
func (n *Network) CenterCell() int { return int(n.sim.Grid().InteriorCell()) }

// InUse returns the channels cell is currently using.
func (n *Network) InUse(cell int) []int {
	use := n.sim.Allocator(hexgrid.CellID(cell)).InUse()
	out := make([]int, 0, use.Len())
	for c := use.First(); c.Valid(); c = use.Next(c) {
		out = append(out, int(c))
	}
	return out
}

// Mode returns the paper's mode variable of cell (adaptive scheme:
// 0 local, 1 borrowing, 2 borrowing+update, 3 borrowing+search).
func (n *Network) Mode(cell int) int { return n.sim.Allocator(hexgrid.CellID(cell)).Mode() }

// Now returns the current virtual time in ticks.
func (n *Network) Now() int64 { return int64(n.sim.Now(0)) }

// Request submits a channel request at cell; cb (may be nil) runs when
// it completes, with Result.ID set to the returned id. Use
// RunFor/RunUntilIdle to make progress.
func (n *Network) Request(cell int, cb func(Result)) RequestID {
	n.nextID++
	id := n.nextID
	n.submit(id, cell, cb)
	return id
}

// RequestAt schedules a request at an absolute virtual time. The id is
// assigned now (monotonic in scheduling order, shared with Request) and
// stamped into the Result when the request completes.
func (n *Network) RequestAt(at int64, cell int, cb func(Result)) RequestID {
	n.nextID++
	id := n.nextID
	n.at(at, cell, func() { n.submit(id, cell, cb) })
	return id
}

// at schedules fn at an absolute virtual time: unattributed on the
// serial kernel — ahead of every cell's own events of that tick, as it
// always ran — and as an event of cell in cell's shard on the sharded
// one, which has no unattributed events.
func (n *Network) at(at int64, cell int, fn func()) {
	if e := n.sim.Engine(); e != nil {
		e.At(sim.Time(at), fn)
		return
	}
	n.sim.At(hexgrid.CellID(cell), sim.Time(at), fn)
}

func (n *Network) submit(id RequestID, cell int, cb func(Result)) {
	n.sim.Request(hexgrid.CellID(cell), func(r driver.Result) {
		if cb != nil {
			cb(Result{
				ID:           id,
				Cell:         int(r.Cell),
				Granted:      r.Granted,
				Channel:      int(r.Ch),
				QueueTicks:   int64(r.Began - r.Submitted),
				AcquireTicks: int64(r.Done - r.Began),
			})
		}
	})
}

// Release returns a previously granted channel at cell.
func (n *Network) Release(cell, channel int) {
	n.sim.Release(hexgrid.CellID(cell), chanset.Channel(channel))
}

// ReleaseAt schedules a release at an absolute virtual time.
func (n *Network) ReleaseAt(at int64, cell, channel int) {
	n.at(at, cell, func() { n.Release(cell, channel) })
}

// RunFor advances virtual time by d ticks.
func (n *Network) RunFor(d int64) { n.sim.Run(n.sim.Now(0) + sim.Time(d)) }

// RunUntilIdle processes events until the network quiesces; it reports
// false if the event budget (1e9 events) was exhausted first.
func (n *Network) RunUntilIdle() bool { return n.sim.Drain(1_000_000_000) }

// CheckInterference verifies Theorem 1 (no co-channel interference
// within the reuse distance) across the whole grid right now.
func (n *Network) CheckInterference() error { return n.sim.CheckInvariant() }

// Stats is a snapshot of network-level statistics.
type Stats struct {
	// Grants and Denies count completed requests.
	Grants, Denies uint64
	// ProtocolDenies counts requests the allocation protocol itself
	// denied (no free channel in the interference region). On this
	// deterministic runtime it equals Denies; runtimes with deadline
	// watchdogs report fewer protocol denies than total denies.
	ProtocolDenies uint64
	// Messages is the total control messages sent.
	Messages uint64
	// MeanAcquireTicks is the mean channel acquisition time of granted
	// requests.
	MeanAcquireTicks float64
	// P95AcquireTicks is its 95th percentile.
	P95AcquireTicks float64
	// MessagesPerRequest is Messages / (Grants + Denies).
	MessagesPerRequest float64
	// BlockingProbability is Denies / (Grants + Denies).
	BlockingProbability float64
	// LocalGrants/UpdateGrants/SearchGrants split grants by
	// acquisition path (ξ1/ξ2/ξ3 numerators).
	LocalGrants, UpdateGrants, SearchGrants uint64
	// UpdateAttempts counts borrowing-update permission rounds
	// (successful or not; the paper's m numerator).
	UpdateAttempts uint64
	// ModeChanges counts local<->borrowing hysteresis transitions.
	ModeChanges uint64
	// Deferred counts requests parked in a DeferQ (timestamp races).
	Deferred uint64
	// BadReleases counts Release calls for channels the cell did not
	// hold (rejected with an error, state untouched).
	BadReleases uint64
	// BadMessages counts received protocol messages the adaptive scheme
	// dropped as malformed (sender outside the interference region,
	// channel or Use set outside the spectrum).
	BadMessages uint64
	// WarmStations counts the cells holding the adaptive scheme's
	// borrowing block (U_j, the grant ledger, DeferQ_i), which a station
	// allocates only when it first stores into it; 0 for other schemes.
	WarmStations int
	// Transport is the transport-layer accounting.
	Transport TransportStats
}

// TransportStats is the transport-layer slice of Stats. The fault
// injection and reliability counters stay zero on the deterministic DES
// runtime (which models a reliable fabric) and become meaningful on the
// live and distributed runtimes.
type TransportStats struct {
	// Messages and WireBytes count transport traffic (bytes only when
	// the wire codec is engaged).
	Messages, WireBytes uint64
	// DropsInjected/DupsInjected/ReordersInjected count injected faults.
	DropsInjected, DupsInjected, ReordersInjected uint64
	// Retransmits/DupsSuppressed/AcksSent/RetryExhausted count
	// reliability-layer work.
	Retransmits, DupsSuppressed, AcksSent, RetryExhausted uint64
}

// Stats returns the current statistics snapshot.
func (n *Network) Stats() Stats {
	st := networkStats(n.sim.Stats())
	st.WarmStations = n.sim.WarmStations()
	return st
}

// networkStats converts a driver snapshot into the public Stats shape.
func networkStats(st driver.Stats) Stats {
	return Stats{
		Grants:              st.Grants,
		Denies:              st.Denies,
		ProtocolDenies:      st.Counters.Drops,
		Messages:            st.Messages.Total,
		MeanAcquireTicks:    st.AcqDelay.Mean(),
		P95AcquireTicks:     st.DelayP95,
		MessagesPerRequest:  st.MessagesPerRequest(),
		BlockingProbability: st.BlockingProbability(),
		LocalGrants:         st.Counters.GrantsLocal,
		UpdateGrants:        st.Counters.GrantsUpdate,
		SearchGrants:        st.Counters.GrantsSearch,
		UpdateAttempts:      st.Counters.UpdateAttempts,
		ModeChanges:         st.Counters.ModeChanges,
		Deferred:            st.Counters.Deferred,
		BadReleases:         st.Counters.BadReleases,
		BadMessages:         st.Counters.BadMessages,
		Transport: TransportStats{
			Messages:         st.Messages.Total,
			WireBytes:        st.Messages.Bytes,
			DropsInjected:    st.Messages.DropsInjected,
			DupsInjected:     st.Messages.DupsInjected,
			ReordersInjected: st.Messages.ReordersInjected,
			Retransmits:      st.Messages.Retransmits,
			DupsSuppressed:   st.Messages.DupsSuppressed,
			AcksSent:         st.Messages.AcksSent,
			RetryExhausted:   st.Messages.RetryExhausted,
		},
	}
}

// KernelFootprint is what the event kernel's queues hold and have held:
// bytes and pages per table, the high-water marks of the queue, and how
// many message attachments (Use snapshots) were stored and how many
// shared a stored one.
type KernelFootprint = sim.Footprint

// KernelFootprint reports the event kernel's memory and queue
// high-water marks, summed over shards (with Obs, also the
// adca_kernel_* gauges). Not during a run.
func (n *Network) KernelFootprint() KernelFootprint { return n.sim.Footprint() }

// Metrics snapshots every registered metric as exposition-style keys
// (e.g. `adca_grants_total{path="local"}`). Nil when the scenario did
// not enable Obs.
func (n *Network) Metrics() map[string]float64 { return n.reg.Snapshot() }

// WriteMetrics renders the metrics in the Prometheus text exposition
// format. A no-op when Obs was not enabled.
func (n *Network) WriteMetrics(w io.Writer) error { return n.reg.WritePrometheus(w) }

// MetricsAddr returns the bound address of the metrics endpoint, or ""
// when none is serving (useful with ObsConfig.MetricsAddr ":0").
func (n *Network) MetricsAddr() string {
	if n.metrics == nil {
		return ""
	}
	return n.metrics.Addr()
}

// Close releases observability resources: it shuts down the metrics
// endpoint (if any) and flushes the journal (the journal's underlying
// writer stays open — it belongs to the caller). Safe to call on
// networks without Obs, and more than once.
func (n *Network) Close() error {
	err := n.metrics.Close()
	n.metrics = nil
	if ferr := n.journal.Flush(); err == nil {
		err = ferr
	}
	return err
}

// WorkloadPhase is one timed hot spot: the cells within HotRadius of
// HotCell offer HotErlang load from StartTicks (inclusive) to EndTicks
// (exclusive). Sequencing several phases across the grid models commute
// waves and flash crowds.
type WorkloadPhase struct {
	HotCell              int
	HotRadius            int
	HotErlang            float64
	StartTicks, EndTicks int64
}

// DiurnalCycle modulates all arrival rates sinusoidally:
// 1 + Swing·sin(2π·t/PeriodTicks) — the day/night cycle.
type DiurnalCycle struct {
	Swing       float64
	PeriodTicks int64
}

// Workload describes Poisson call traffic for RunWorkload.
type Workload struct {
	// ErlangPerCell is the offered load per cell (arrival rate times
	// mean hold).
	ErlangPerCell float64
	// HotCell and HotErlang optionally overlay a hot spot; HotRadius
	// extends it to the cells within that hex distance of HotCell. A
	// negative HotCell (here and in phases) selects the grid's interior
	// cell.
	HotCell   int
	HotErlang float64
	HotRadius int
	// Phases optionally overlay timed hot spots (commute waves, flash
	// crowds, stadium events).
	Phases []WorkloadPhase
	// Diurnal optionally applies a day/night cycle to all rates.
	Diurnal *DiurnalCycle
	// MeanHoldTicks is the mean call duration (default 3000).
	MeanHoldTicks float64
	// HandoffRate is the per-call mobility rate (events per tick).
	HandoffRate float64
	// DurationTicks bounds arrivals; WarmupTicks excludes the initial
	// transient from statistics.
	DurationTicks, WarmupTicks int64
	// Seed drives the workload randomness.
	Seed uint64
	// WarmStart seeds every cell's stationary Erlang occupancy as
	// in-progress calls before tick 0 (O(cells) setup instead of
	// simulating ≳ one mean hold of ramp-up). Seeded calls are not
	// counted as offered.
	WarmStart bool
	// DrainHorizonTicks, when > 0, truncates the post-duration drain
	// DurationTicks + DrainHorizonTicks into the run: later events are
	// discarded and still-held calls force-released in canonical order,
	// so stats over the measurement window match a full drain at a
	// fraction of its wall-clock. 0 drains to natural quiescence.
	DrainHorizonTicks int64
}

// WorkloadStats reports a workload run.
type WorkloadStats struct {
	Offered, Blocked              uint64
	HandoffAttempts, HandoffDrops uint64
	BlockingProbability           float64
	HandoffDropProbability        float64
}

// workloadSpec translates the facade Workload (loads in Erlang) into
// the internal traffic.Spec (rates per tick), building the profile
// through the shared traffic.BuildProfile so the serial and sharded
// runners — and the scenario loader — agree on profile semantics.
func workloadSpec(grid *hexgrid.Grid, w Workload) (traffic.Spec, error) {
	if w.MeanHoldTicks == 0 {
		w.MeanHoldTicks = 3000
	}
	if w.DurationTicks == 0 {
		w.DurationTicks = 120_000
	}
	// A negative center selects the grid's interior cell — callers that
	// build workloads before the grid exists (scenario files, the
	// sharded runner) use it instead of Network.CenterCell.
	center := func(c int) hexgrid.CellID {
		if c < 0 {
			return grid.InteriorCell()
		}
		return hexgrid.CellID(c)
	}
	ps := traffic.ProfileSpec{BaseRate: w.ErlangPerCell / w.MeanHoldTicks}
	if w.HotErlang > 0 {
		ps.Hotspot = &traffic.HotspotSpec{
			Center: center(w.HotCell),
			Radius: w.HotRadius,
			Rate:   w.HotErlang / w.MeanHoldTicks,
		}
	}
	for _, ph := range w.Phases {
		ps.Phases = append(ps.Phases, traffic.PhaseSpec{
			Center: center(ph.HotCell),
			Radius: ph.HotRadius,
			Rate:   ph.HotErlang / w.MeanHoldTicks,
			Start:  sim.Time(ph.StartTicks),
			End:    sim.Time(ph.EndTicks),
		})
	}
	if d := w.Diurnal; d != nil {
		ps.Diurnal = &traffic.DiurnalSpec{Swing: d.Swing, Period: sim.Time(d.PeriodTicks)}
	}
	profile, err := traffic.BuildProfile(grid, ps)
	if err != nil {
		return traffic.Spec{}, fmt.Errorf("adca: %w", err)
	}
	return traffic.Spec{
		Profile:      profile,
		MeanHold:     w.MeanHoldTicks,
		HandoffRate:  w.HandoffRate,
		Duration:     sim.Time(w.DurationTicks),
		Warmup:       sim.Time(w.WarmupTicks),
		Seed:         w.Seed,
		WarmStart:    w.WarmStart,
		DrainHorizon: sim.Time(w.DrainHorizonTicks),
	}, nil
}

func workloadStats(ts traffic.Stats) WorkloadStats {
	return WorkloadStats{
		Offered:                ts.Offered,
		Blocked:                ts.Blocked,
		HandoffAttempts:        ts.HandoffAttempts,
		HandoffDrops:           ts.HandoffDrops,
		BlockingProbability:    ts.BlockingProbability(),
		HandoffDropProbability: ts.HandoffDropProbability(),
	}
}

// RunWorkload drives Poisson traffic over the network to completion and
// verifies the interference invariant over the final state.
func (n *Network) RunWorkload(w Workload) (WorkloadStats, error) {
	spec, err := workloadSpec(n.sim.Grid(), w)
	if err != nil {
		return WorkloadStats{}, err
	}
	ts, err := traffic.Run(n.sim, spec)
	if err != nil {
		return WorkloadStats{}, err
	}
	if err := n.sim.CheckInvariant(); err != nil {
		return WorkloadStats{}, err
	}
	return workloadStats(ts), nil
}

// RunParallel builds the scenario on the sharded kernel (NewParallel)
// and drives the workload RunWorkload would, mobility included: arrival,
// holding and mobility randomness are per-cell substreams, so the
// trajectory is that of the serial RunWorkload at any shard and worker
// count.
func RunParallel(sc Scenario, w Workload, opts ...Option) (WorkloadStats, Stats, error) {
	n, err := NewParallel(sc, opts...)
	if err != nil {
		return WorkloadStats{}, Stats{}, err
	}
	ws, err := n.RunWorkload(w)
	if cerr := n.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return WorkloadStats{}, Stats{}, err
	}
	return ws, n.Stats(), nil
}
