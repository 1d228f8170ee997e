package driver_test

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/message"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/schemetest"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// The drivers' Envs offer alloc.Multicaster: a broadcast becomes one
// queue record per destination shard. These tests run a scenario with
// the capability and with it hidden (schemetest.SendOnly) — every send
// then a loop of Send, the path that was there before — and want the
// same trajectory.

// mcScenario is one toy scenario of the matrix.
type mcScenario struct {
	name     string
	scheme   string
	grid     hexgrid.Config
	channels int
	erlang   float64
	jitter   sim.Time
	wire     bool
	horizon  sim.Time // DrainHorizon; 0 drains to quiescence
	// golden pins the outcome's hashes as computed at the commit before
	// fan records existed.
	golden string
}

func (sc mcScenario) spec() traffic.Spec {
	return traffic.Spec{
		Profile: traffic.Uniform{PerCell: sc.erlang / 3000}, MeanHold: 3000,
		Duration: 5000, Warmup: 1000, Seed: 11, WarmStart: true, DrainHorizon: sc.horizon,
	}
}

// mcOutcome is everything a run leaves behind.
type mcOutcome struct {
	Stats   driver.Stats
	Traffic traffic.Stats
	Trace   []trace.Event
	Use     []string
}

func (o mcOutcome) hash() string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", o))))[:16]
}

type mcDriver interface {
	Stats() driver.Stats
	Trace() []trace.Event
	Allocator(hexgrid.CellID) alloc.Allocator
	CheckInvariant() error
}

func mcCollect(t *testing.T, g *hexgrid.Grid, d mcDriver, ts traffic.Stats, err error) mcOutcome {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	o := mcOutcome{Stats: d.Stats(), Traffic: ts, Trace: d.Trace()}
	for c := 0; c < g.NumCells(); c++ {
		o.Use = append(o.Use, d.Allocator(hexgrid.CellID(c)).InUse().String())
	}
	return o
}

// run executes sc serially (shards 0) or sharded, with the Multicaster
// capability or without it.
func (sc mcScenario) run(t *testing.T, shards int, multicast bool) mcOutcome {
	t.Helper()
	g := hexgrid.MustNew(sc.grid)
	assign := chanset.MustAssign(g, sc.channels)
	var f alloc.Factory
	f, err := registry.Build(sc.scheme, g, assign, registry.Config{Latency: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !multicast {
		f = schemetest.SendOnly(f)
	}
	if shards == 0 {
		s := driver.New(g, assign, f, driver.Options{Latency: 10, Jitter: sc.jitter, Wire: sc.wire, Seed: 11, Check: true, TraceSize: 1 << 16})
		ts, err := traffic.Run(s, sc.spec())
		return mcCollect(t, g, s, ts, err)
	}
	p, err := driver.NewParallel(g, assign, f, driver.ParallelOptions{
		Latency: 10, Jitter: sc.jitter, Wire: sc.wire, Seed: 11, Check: true, TraceSize: 1 << 16, Shards: shards, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := traffic.RunParallel(p, sc.spec())
	return mcCollect(t, g, p, ts, err)
}

// TestMulticastMatchesSends: Stats (message counts by kind included),
// traffic tallies, Trace() and every cell's InUse are DeepEqual with
// the capability on and hidden — on the serial driver and sharded, for a
// borrow-heavy adaptive run drained to quiescence and truncated (fan
// records queued and boxed when ForceQuiesce discards them), for a
// baseline scheme that only broadcasts, and on a reuse-distance-5 grid
// whose 90-cell neighbourhoods need two mask words, and with jitter or
// the codec on, when a multicast goes out by Send. Every outcome also
// still hashes to what it did before fan records existed.
func TestMulticastMatchesSends(t *testing.T) {
	toy := hexgrid.Config{Shape: hexgrid.Rect, Width: 12, Height: 12, ReuseDistance: 2, Wrap: true}
	wide := hexgrid.Config{Shape: hexgrid.Rect, Width: 12, Height: 12, ReuseDistance: 5, Wrap: true}
	scenarios := []mcScenario{
		{name: "borrow-heavy", scheme: "adaptive", grid: toy, channels: 70, erlang: 9.5, golden: "serial 793c6ca00e0d61b1 sharded 756ae1a4573e1ea6"},
		{name: "truncated", scheme: "adaptive", grid: toy, channels: 70, erlang: 9.5, horizon: 200, golden: "serial f041172cd6e8bd00 sharded 0913d37c3360d3d3"},
		{name: "basic-update", scheme: "basic-update", grid: toy, channels: 70, erlang: 8, golden: "serial 18c8eb41f5ddaee6 sharded 29e7a0076d4fdca2"},
		{name: "reuse-5", scheme: "adaptive", grid: wide, channels: 300, erlang: 8.5, golden: "serial d30ff6542cb509c8 sharded fe1eeaeff259bbaa"},
		{name: "jitter", scheme: "adaptive", grid: toy, channels: 70, erlang: 9.5, jitter: 4, golden: "serial 7fa05e19d02f41ad sharded 2661d4bafac22c5b"},
		{name: "wire", scheme: "adaptive", grid: toy, channels: 70, erlang: 9.5, wire: true, golden: "serial ffe082e734f0529e sharded de1ebb0585b9ac0a"},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			serial := sc.run(t, 0, true)
			c := serial.Stats.Counters
			if c.GrantsUpdate+c.GrantsSearch == 0 && sc.scheme == "adaptive" {
				t.Fatalf("no borrowing grants: the scenario does not exercise the broadcasts (%+v)", c)
			}
			if n := serial.Stats.Messages.ByKind; n[message.Acquisition] == 0 || n[message.Release] == 0 || n[message.Request] == 0 {
				t.Fatalf("message mix is vacuous: %v", n)
			}
			if got := sc.run(t, 0, false); !reflect.DeepEqual(got, serial) {
				t.Errorf("serial driver: hiding Multicast changed the outcome (messages %v vs %v)", got.Stats.Messages.ByKind, serial.Stats.Messages.ByKind)
			}
			sharded := sc.run(t, 7, true)
			if got := sc.run(t, 7, false); !reflect.DeepEqual(got, sharded) {
				t.Errorf("sharded driver: hiding Multicast changed the outcome (messages %v vs %v)", got.Stats.Messages.ByKind, sharded.Stats.Messages.ByKind)
			}
			if sc.jitter == 0 {
				// (Jittered serial and sharded runs draw from different
				// jitter streams and are distinct scenarios.)
				if sharded.Stats.Messages != serial.Stats.Messages || !reflect.DeepEqual(sharded.Use, serial.Use) || !reflect.DeepEqual(sharded.Traffic, serial.Traffic) {
					t.Errorf("sharded run diverged from the serial one")
				}
			}
			if got := "serial " + serial.hash() + " sharded " + sharded.hash(); got != sc.golden {
				t.Errorf("outcome hashes %q, want %q as before fan records", got, sc.golden)
			}
		})
	}
}

// TestKernelFootprintGauges: with a registry attached both drivers
// publish the kernel's own footprint when it parks, and the transport
// counter a multicast advances in one step agrees with Stats.
func TestKernelFootprintGauges(t *testing.T) {
	sc := mcScenario{scheme: "adaptive", grid: hexgrid.Config{Shape: hexgrid.Rect, Width: 12, Height: 12, ReuseDistance: 2, Wrap: true}, channels: 70, erlang: 9.5}
	g := hexgrid.MustNew(sc.grid)
	assign := chanset.MustAssign(g, sc.channels)
	f, err := registry.Build(sc.scheme, g, assign, registry.Config{Latency: 10})
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, reg *obs.Registry, fp sim.Footprint, st driver.Stats) {
		t.Helper()
		snap := reg.Snapshot()
		for key, want := range map[string]float64{
			`adca_kernel_bytes{table="heap"}`:          float64(fp.HeapBytes),
			`adca_kernel_bytes{table="attachments"}`:   float64(fp.AttBytes),
			`adca_kernel_bytes{table="routes"}`:        float64(fp.RouteBytes),
			`adca_kernel_pages{table="heap"}`:          float64(fp.HeapPages),
			`adca_kernel_bytes{table="pool"}`:          float64(fp.PoolBytes),
			`adca_kernel_pages{table="pool"}`:          float64(fp.PoolPages),
			`adca_kernel_peak_pending{unit="records"}`: float64(fp.PeakRecords),
			`adca_kernel_peak_pending{unit="events"}`:  float64(fp.PeakEvents),
			`adca_transport_messages_total`:            float64(st.Messages.Total),
			`adca_requests_granted_total`:              float64(st.Grants),
			`adca_kernel_bytes{table="funcs"}`:         float64(fp.SideBytes),
			`adca_kernel_pages{table="attachments"}`:   float64(fp.AttPages),
			`adca_kernel_attachments{how="parked"}`:    float64(fp.AttParked),
			`adca_kernel_attachments{how="shared"}`:    float64(fp.AttShared),
			`adca_requests_outstanding`:                0,
			`adca_requests_denied_total`:               float64(st.Denies),
			`adca_acquire_ticks_count`:                 float64(st.Grants),
		} {
			if got := snap[key]; got != want {
				t.Errorf("%s: %s = %v, want %v", name, key, got, want)
			}
		}
		if fp.HeapBytes == 0 || fp.AttBytes == 0 || fp.AttParked == 0 || fp.AttShared == 0 || fp.PeakRecords == 0 || fp.PeakEvents < fp.PeakRecords || fp.Pops == 0 || fp.Events != 0 || fp.Records != 0 {
			t.Errorf("%s: footprint %+v after a drained run", name, fp)
		}
	}

	reg := obs.New()
	s := driver.New(g, assign, f, driver.Options{Latency: 10, Seed: 11, Obs: reg})
	if _, err := traffic.Run(s, sc.spec()); err != nil {
		t.Fatal(err)
	}
	check("serial", reg, s.Engine().Footprint(), s.Stats())

	reg = obs.New()
	p, err := driver.NewParallel(g, assign, f, driver.ParallelOptions{Latency: 10, Seed: 11, Shards: 7, Workers: 2, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := traffic.RunParallel(p, sc.spec()); err != nil {
		t.Fatal(err)
	}
	fp := p.Kernel().Footprint()
	check("sharded", reg, fp, p.Stats())
	if fp.RouteBytes == 0 {
		t.Errorf("sharded: no route memory in %+v", fp)
	}
	// The mailboxes' pages come from the pool and are back in it between
	// barriers; a 144-cell grid's heaps never outgrow their own first page.
	if fp.PoolPages == 0 || fp.PoolOut != 0 || fp.PoolBytes != uint64(fp.PoolPages)<<10*sim.EventSize {
		t.Errorf("sharded: pool of %d pages (%d bytes), %d out after a drained run", fp.PoolPages, fp.PoolBytes, fp.PoolOut)
	}
}
