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
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/registry"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// Scenario configures a Network. The zero value of each field selects a
// sensible default (a wrapped 7x7 reuse-2 grid, 70 channels, T = 10
// ticks, the adaptive scheme). It is the one scenario description,
// shared with scenario files and chansim's flags.
type Scenario = scenario.Scenario

// ObsConfig enables the observability layer of a Network. The zero
// value collects metrics in memory only (read them with
// Network.Metrics or Network.WriteMetrics); Network.Close flushes its
// Journal but does not close it.
type ObsConfig = scenario.ObsConfig

// AdaptiveParams are the paper's tuning knobs (θ_l, θ_h, α, W).
type AdaptiveParams = scenario.AdaptiveParams

// PolicySpec selects a registered adaptive policy (an NFC predictor or
// a lender-selection strategy) by name, with optional parameters, e.g.
// {Name: "ewma", Params: map[string]float64{"alpha": 0.2}}.
type PolicySpec = scenario.PolicySpec

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
	sim     *driver.Sim
	parts   *scenario.Parts
	nextID  RequestID
	metrics *obs.Server
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

func build(c runConfig, sharded bool) (*Network, error) {
	p, err := scenario.Build(c.sc)
	if err != nil {
		return nil, fmt.Errorf("adca: %w", err)
	}
	n := &Network{parts: p}
	if n.sim, err = p.Driver(sharded, c.shards, c.workers); err != nil {
		return nil, fmt.Errorf("adca: %w", err)
	}
	if o := p.Scenario.Obs; o != nil && o.MetricsAddr != "" {
		if n.metrics, err = obs.Serve(o.MetricsAddr, p.Registry); err != nil {
			return nil, fmt.Errorf("adca: metrics endpoint: %w", err)
		}
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
func (n *Network) Scheme() string { return n.parts.Scenario.Scheme }

// NumCells returns the number of cells.
func (n *Network) NumCells() int { return n.sim.Grid().NumCells() }

// NumChannels returns the spectrum size.
func (n *Network) NumChannels() int { return n.sim.Assignment().NumChannels }

// Primaries returns the primary channel ids of cell.
func (n *Network) Primaries(cell int) []int { return channels(n.sim.Assignment().Primary[cell]) }

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
	return channels(n.sim.Allocator(hexgrid.CellID(cell)).InUse())
}

// channels lists the channel ids of set in ascending order.
func channels(set chanset.Set) []int {
	out := make([]int, 0, set.Len())
	for c := set.First(); c.Valid(); c = set.Next(c) {
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
	st := n.sim.Stats()
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
		WarmStations:        n.sim.WarmStations(),
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
func (n *Network) Metrics() map[string]float64 { return n.parts.Registry.Snapshot() }

// WriteMetrics renders the metrics in the Prometheus text exposition
// format. A no-op when Obs was not enabled.
func (n *Network) WriteMetrics(w io.Writer) error { return n.parts.Registry.WritePrometheus(w) }

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
	if ferr := n.parts.Journal.Flush(); err == nil {
		err = ferr
	}
	return err
}

// WorkloadPhase is one timed hot spot: the cells within HotRadius of
// HotCell offer HotErlang load from StartTicks (inclusive) to EndTicks
// (exclusive).
type WorkloadPhase = scenario.WorkloadPhase

// DiurnalCycle modulates all arrival rates sinusoidally:
// 1 + Swing·sin(2π·t/PeriodTicks) — the day/night cycle.
type DiurnalCycle = scenario.DiurnalCycle

// Workload describes Poisson call traffic for RunWorkload.
type Workload = scenario.Workload

// WorkloadStats reports a workload run.
type WorkloadStats struct {
	Offered, Blocked              uint64
	HandoffAttempts, HandoffDrops uint64
	BlockingProbability           float64
	HandoffDropProbability        float64
}

// RunWorkload drives Poisson traffic over the network to completion and
// verifies the interference invariant over the final state.
func (n *Network) RunWorkload(w Workload) (WorkloadStats, error) {
	spec, err := w.Spec(n.sim.Grid())
	if err != nil {
		return WorkloadStats{}, fmt.Errorf("adca: %w", err)
	}
	ts, err := traffic.Run(n.sim, spec)
	if err != nil {
		return WorkloadStats{}, err
	}
	if err := n.sim.CheckInvariant(); err != nil {
		return WorkloadStats{}, err
	}
	return WorkloadStats{
		Offered:                ts.Offered,
		Blocked:                ts.Blocked,
		HandoffAttempts:        ts.HandoffAttempts,
		HandoffDrops:           ts.HandoffDrops,
		BlockingProbability:    ts.BlockingProbability(),
		HandoffDropProbability: ts.HandoffDropProbability(),
	}, nil
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
