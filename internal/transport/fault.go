package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hexgrid"
	"repro/internal/message"
	"repro/internal/sim"
)

// FaultConfig describes the per-link fault model injected by Faulty.
// All probabilities are per message in [0, 1]. The zero value injects
// nothing.
type FaultConfig struct {
	// Seed drives the fault stream (deterministic given the same
	// message order; the live runtime's interleavings are inherently
	// nondeterministic, so this pins the fault *rates*, not the exact
	// victims).
	Seed uint64
	// Drop is the probability a message is silently discarded.
	Drop float64
	// Duplicate is the probability a message is delivered twice.
	Duplicate float64
	// Reorder is the probability a message is held back by
	// ReorderDelay, letting later messages on the same link overtake it.
	Reorder float64
	// ReorderDelay is the hold-back applied to reordered messages
	// (default 500µs).
	ReorderDelay time.Duration
	// JitterMin/JitterMax bound the uniform extra latency added to
	// every delivered message (both zero = no jitter).
	JitterMin, JitterMax time.Duration
}

// Validate reports whether the fault model is well-formed.
func (c FaultConfig) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"Drop", c.Drop}, {"Duplicate", c.Duplicate}, {"Reorder", c.Reorder}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("transport: fault %s probability %v outside [0,1]", p.name, p.v)
		}
	}
	if c.JitterMin < 0 || c.JitterMax < c.JitterMin {
		return fmt.Errorf("transport: fault jitter range [%v, %v] invalid", c.JitterMin, c.JitterMax)
	}
	if c.ReorderDelay < 0 {
		return fmt.Errorf("transport: negative ReorderDelay %v", c.ReorderDelay)
	}
	return nil
}

// Faulty decorates a Transport with seeded message drop, duplication,
// reordering and latency jitter. It models an unreliable signaling
// plane; stack Reliable above it to restore the reliable-FIFO contract
// the protocol layer requires.
type Faulty struct {
	inner Transport
	cfg   FaultConfig

	mu   sync.Mutex
	rand *sim.Rand

	pending  atomic.Int64 // jittered messages not yet handed to inner
	drops    atomic.Uint64
	dups     atomic.Uint64
	reorders atomic.Uint64
}

// NewFaulty wraps inner with the given fault model. The config must
// validate.
func NewFaulty(inner Transport, cfg FaultConfig) *Faulty {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.ReorderDelay <= 0 {
		cfg.ReorderDelay = 500 * time.Microsecond
	}
	return &Faulty{inner: inner, cfg: cfg, rand: sim.NewRand(cfg.Seed)}
}

// Attach implements Transport.
func (f *Faulty) Attach(id hexgrid.CellID, h Handler) { f.inner.Attach(id, h) }

// Send implements Transport, applying the fault model to m.
func (f *Faulty) Send(m message.Message) {
	f.mu.Lock()
	drop := f.cfg.Drop > 0 && f.rand.Float64() < f.cfg.Drop
	dup := f.cfg.Duplicate > 0 && f.rand.Float64() < f.cfg.Duplicate
	reorder := f.cfg.Reorder > 0 && f.rand.Float64() < f.cfg.Reorder
	delays := [2]time.Duration{f.delayLocked(), f.delayLocked()}
	f.mu.Unlock()

	if drop {
		f.drops.Add(1)
		return
	}
	copies := 1
	if dup {
		f.dups.Add(1)
		copies = 2
	}
	if reorder {
		f.reorders.Add(1)
		delays[0] += f.cfg.ReorderDelay
	}
	for i := 0; i < copies; i++ {
		f.sendAfter(m, delays[i])
	}
}

// delayLocked draws one jitter value (f.mu held).
func (f *Faulty) delayLocked() time.Duration {
	span := f.cfg.JitterMax - f.cfg.JitterMin
	if span <= 0 {
		return f.cfg.JitterMin
	}
	return f.cfg.JitterMin + time.Duration(f.rand.Float64()*float64(span))
}

func (f *Faulty) sendAfter(m message.Message, d time.Duration) {
	if d <= 0 {
		f.inner.Send(m)
		return
	}
	f.pending.Add(1)
	time.AfterFunc(d, func() {
		f.inner.Send(m)
		// Retire after the send: the message is already counted beneath
		// us, so Idle never dips to true while the delivery is pending.
		f.pending.Add(-1)
	})
}

// Idle implements Idler: no message is waiting out its jitter and the
// layer beneath is idle.
func (f *Faulty) Idle() bool { return f.pending.Load() == 0 && innerIdle(f.inner) }

// Stats implements Transport: the inner traffic counts plus this
// layer's injection counters.
func (f *Faulty) Stats() Stats {
	s := f.inner.Stats()
	s.DropsInjected += f.drops.Load()
	s.DupsInjected += f.dups.Load()
	s.ReordersInjected += f.reorders.Load()
	return s
}
