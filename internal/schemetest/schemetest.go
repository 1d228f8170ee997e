// Package schemetest is the shared conformance harness for allocation
// schemes: every scheme must preserve Theorem 1 (no co-channel
// interference) and complete every request (grant or deny — never wedge)
// under randomized workloads. Baseline and core test files drive their
// schemes through these helpers so all schemes face the same battery.
package schemetest

import (
	"reflect"
	"testing"

	"repro/internal/alloc"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/registry"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Scenario describes one conformance run.
type Scenario struct {
	Grid     hexgrid.Config
	Channels int
	Events   int
	MeanGap  float64 // mean inter-arrival gap in ticks (whole grid)
	MeanHold float64 // mean call duration in ticks
	Seed     uint64
	Latency  sim.Time // 0 selects the registry's and driver's T = 10
	// SendOnly hides the driver's alloc.Multicaster capability from the
	// scheme (see SendOnly).
	SendOnly bool
	// Shards, when positive, runs the scenario on the sharded kernel
	// (driver.NewParallel, two workers) instead of the serial one, where
	// Theorem 1 is checked at every window barrier instead of at every
	// grant.
	Shards int
}

// SendOnly wraps f so that its allocators start on an Env offering
// alloc.Env's own methods and nothing more: every optional capability
// of the runtime's Env — alloc.Multicaster — is hidden, and a broadcast
// goes out as one Send per neighbor. The reference path of the
// multicast-equivalence tests.
func SendOnly(f alloc.Factory) alloc.Factory { return sendOnlyFactory{f} }

type sendOnlyFactory struct{ alloc.Factory }

func (f sendOnlyFactory) New(cell hexgrid.CellID) alloc.Allocator {
	return sendOnlyAllocator{f.Factory.New(cell)}
}

type sendOnlyAllocator struct{ alloc.Allocator }

// Start hands the allocator the Env with only alloc.Env's methods
// promoted.
func (a sendOnlyAllocator) Start(env alloc.Env) { a.Allocator.Start(struct{ alloc.Env }{env}) }

// ProtocolCounters keeps the wrapped allocator's alloc.CounterProvider
// visible to the driver's Stats.
func (a sendOnlyAllocator) ProtocolCounters() alloc.Counters {
	if cp, ok := a.Allocator.(alloc.CounterProvider); ok {
		return cp.ProtocolCounters()
	}
	return alloc.Counters{}
}

// DefaultGrid is the wrapped 7x7 reuse-2 lattice used across the suite.
func DefaultGrid() hexgrid.Config {
	return hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true}
}

// Build wires a driver.Sim for the named scheme.
func Build(t *testing.T, scheme string, sc Scenario) *driver.Sim {
	t.Helper()
	g, assign, f, err := scenario.Assemble(sc.Grid, sc.Channels, scheme, registry.Config{Latency: sc.Latency})
	if err != nil {
		t.Fatal(err)
	}
	if sc.SendOnly {
		f = SendOnly(f)
	}
	opts := driver.Options{Latency: sc.Latency, Seed: sc.Seed, Check: true}
	if sc.Shards == 0 {
		return driver.New(g, assign, f, opts)
	}
	opts.Shards, opts.Workers = sc.Shards, 2
	s, err := driver.NewParallel(g, assign, f, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// at schedules fn at time t for cell: on the serial kernel as an event
// of no cell, on the sharded one in cell's shard.
func at(s *driver.Sim, cell hexgrid.CellID, t sim.Time, fn func()) {
	if e := s.Engine(); e != nil {
		e.At(t, fn)
		return
	}
	s.At(cell, t, fn)
}

// RandomWorkload drives a seeded random request/release mix through the
// scheme and fails the test on any safety or liveness violation. It
// returns the final stats for scheme-specific assertions.
func RandomWorkload(t *testing.T, scheme string, sc Scenario) driver.Stats {
	t.Helper()
	s, _, _ := randomWorkload(t, scheme, sc)
	return s.Stats()
}

// randomWorkload is RandomWorkload, returning the driver and each cell's
// request ids in submission order and in the order their completions
// ran.
func randomWorkload(t *testing.T, scheme string, sc Scenario) (s *driver.Sim, submitted, completed [][]alloc.RequestID) {
	t.Helper()
	s = Build(t, scheme, sc)
	rng := sim.NewRand(sc.Seed + 0x9e37)
	n := s.Grid().NumCells()
	submitted, completed = make([][]alloc.RequestID, n), make([][]alloc.RequestID, n)
	now := sim.Time(0)
	for i := 0; i < sc.Events; i++ {
		now += rng.ExpTicks(sc.MeanGap)
		cell := hexgrid.CellID(rng.Intn(n))
		hold := rng.ExpTicks(sc.MeanHold)
		at(s, cell, now, func() {
			id := s.Request(cell, func(r driver.Result) {
				completed[r.Cell] = append(completed[r.Cell], r.ID)
				if r.Granted {
					at(s, r.Cell, s.Now(r.Cell)+hold, func() { s.Release(r.Cell, r.Ch) })
				}
			})
			submitted[cell] = append(submitted[cell], id)
		})
	}
	if !s.Drain(100_000_000) {
		t.Fatalf("%s: simulation did not quiesce", scheme)
	}
	done := 0
	for _, ids := range completed {
		done += len(ids)
	}
	if done != sc.Events {
		t.Fatalf("%s: completed %d of %d requests — liveness violated", scheme, done, sc.Events)
	}
	if err := s.CheckInvariant(); err != nil {
		t.Fatalf("%s: %v", scheme, err)
	}
	for i := 0; i < n; i++ {
		if inUse := s.Allocator(hexgrid.CellID(i)).InUse(); !inUse.Empty() {
			t.Fatalf("%s: cell %d still holds %v after all releases", scheme, i, inUse)
		}
	}
	return s, submitted, completed
}

// Conformance runs the standard scenario battery for one scheme:
// moderate load, overload with a tiny spectrum, and a burst focused on
// one interference neighborhood.
func Conformance(t *testing.T, scheme string) {
	t.Helper()
	overload := Scenario{
		Grid: DefaultGrid(), Channels: 21, Events: 500,
		MeanGap: 20, MeanHold: 6000, Seed: 12,
	}
	moderate := Scenario{
		Grid: DefaultGrid(), Channels: 70, Events: 500,
		MeanGap: 30, MeanHold: 2500, Seed: 11,
	}
	t.Run("moderate", func(t *testing.T) {
		RandomWorkload(t, scheme, moderate)
	})
	t.Run("overload", func(t *testing.T) {
		RandomWorkload(t, scheme, overload)
	})
	t.Run("fifo-completion", func(t *testing.T) {
		// A cell's requests complete in submission order: the
		// alloc.Allocator contract the driver's request book relies on.
		_, submitted, completed := randomWorkload(t, scheme, overload)
		for cell := range submitted {
			if !reflect.DeepEqual(completed[cell], submitted[cell]) {
				t.Fatalf("%s: cell %d completed requests %v, submitted %v", scheme, cell, completed[cell], submitted[cell])
			}
		}
	})
	t.Run("sharded-check", func(t *testing.T) {
		// The same batteries at four shards, where the check runs over
		// the holdings table at every window barrier.
		for _, sc := range []Scenario{moderate, overload} {
			sc.Shards = 4
			RandomWorkload(t, scheme, sc)
		}
	})
	t.Run("multicast-equals-sends", func(t *testing.T) {
		// The driver carries a broadcast as one queue record; the scheme
		// must not be able to tell.
		sc := overload
		multicast := RandomWorkload(t, scheme, sc)
		sc.SendOnly = true
		if sends := RandomWorkload(t, scheme, sc); !reflect.DeepEqual(sends, multicast) {
			t.Fatalf("%s: stats differ with the Env's Multicaster hidden:\n%+v\n%+v", scheme, sends, multicast)
		}
	})
	t.Run("hot-neighborhood", func(t *testing.T) {
		s := Build(t, scheme, Scenario{Grid: DefaultGrid(), Channels: 28, Seed: 13})
		cell := s.Grid().InteriorCell()
		targets := append([]hexgrid.CellID{cell}, s.Grid().Interference(cell)...)
		rng := sim.NewRand(13)
		e := s.Engine()
		total, done := 0, 0
		for i := 0; i < 150; i++ {
			c := targets[rng.Intn(len(targets))]
			at := sim.Time(rng.Intn(5000))
			hold := rng.ExpTicks(3000)
			total++
			e.At(at, func() {
				s.Request(c, func(r driver.Result) {
					done++
					if r.Granted {
						e.After(hold, func() { s.Release(r.Cell, r.Ch) })
					}
				})
			})
		}
		if !s.Drain(100_000_000) {
			t.Fatalf("%s: no quiescence", scheme)
		}
		if done != total {
			t.Fatalf("%s: %d of %d completed", scheme, done, total)
		}
		if err := s.CheckInvariant(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("every-step-invariant", func(t *testing.T) {
		s := Build(t, scheme, Scenario{Grid: DefaultGrid(), Channels: 21, Seed: 14})
		cell := s.Grid().InteriorCell()
		targets := append([]hexgrid.CellID{cell}, s.Grid().Interference(cell)...)
		rng := sim.NewRand(14)
		e := s.Engine()
		for i := 0; i < 50; i++ {
			c := targets[rng.Intn(len(targets))]
			at := sim.Time(rng.Intn(1500))
			hold := sim.Time(500 + rng.Intn(2500))
			e.At(at, func() {
				s.Request(c, func(r driver.Result) {
					if r.Granted {
						e.After(hold, func() { s.Release(r.Cell, r.Ch) })
					}
				})
			})
		}
		steps := 0
		for e.Step() {
			if steps++; steps > 3_000_000 {
				t.Fatalf("%s: no quiescence", scheme)
			}
			if err := s.CheckInvariant(); err != nil {
				t.Fatalf("%s after %d events: %v", scheme, steps, err)
			}
		}
		if s.Outstanding() != 0 {
			t.Fatalf("%s: outstanding=%d", scheme, s.Outstanding())
		}
	})
}
