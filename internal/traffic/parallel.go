package traffic

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/driver"
)

// Run drives the workload over the driver to completion (arrivals stop
// at Duration, held calls drain afterwards) and returns the stats. Every
// random stream the workload consumes is per cell — arrivals/holding
// (Substream(seed, arrivalLabel+cell)) and mobility
// (Substream(seed, mobilityLabel+cell)) — so each stream is consumed
// entirely inside its cell's shard and the generated schedule is
// identical at any shard or worker count, on either kernel.
//
// Mobility runs sharded: a call leg draws its dwell time and neighbor
// pick from the *current* cell's mobility substream when the leg is
// granted, and the handoff itself is a relayed event (driver.PostRelay)
// that reaches the target cell one message latency after the crossing —
// exactly the kernel's lookahead bound, so the hop is always a legal
// cross-shard event. Handoff tallies are per shard and merged in shard
// order, like Offered/Blocked.
func Run(p *driver.Parallel, spec Spec) (Stats, error) {
	r, err := PrimeParallel(p, spec)
	if err != nil {
		return Stats{}, err
	}
	return r.Finish()
}

// PrimedParallel is a seeded-but-not-yet-run workload: kernel reserves
// are placed, warm-start occupancy (Spec.WarmStart) is submitted and
// every cell's first candidate arrival is scheduled, but no simulation
// time has passed. Finish runs it to completion.
type PrimedParallel struct {
	p *driver.Parallel
	g *generator
}

// PrimeParallel validates spec and seeds the workload over p without
// running it: the reserves on the calling goroutine, then each shard's
// tile on the worker that runs its windows (generator.prime). The split
// from Run exists so the repository benchmark can time the O(cells)
// warm-start seeding (setup_s) apart from the simulation (run_s); Run is
// PrimeParallel + Finish.
func PrimeParallel(p *driver.Parallel, spec Spec) (*PrimedParallel, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	part := p.Partition()
	// A truncated run discards whatever is queued at its cutoff unrun,
	// so the kernel queues nothing due later: most of a warm start's
	// hang-ups, among others.
	byCutoff := 1.0
	if spec.DrainHorizon > 0 {
		cutoff := spec.Duration + spec.DrainHorizon
		p.SetCutoff(cutoff)
		// Holds (and dwells) are exponential, hence memoryless: whenever
		// a call is held, its next event — hang-up or handoff — lands by
		// the cutoff with probability at most 1 − e^{−cutoff·(1/MeanHold
		// + HandoffRate)}, and only those are queued.
		byCutoff = -math.Expm1(-float64(cutoff) * (1/spec.MeanHold + spec.HandoffRate))
	}
	// Per-shard capacity hints for the kernel: a shard's queue
	// concurrently holds one candidate arrival per cell plus roughly one
	// release/handoff event per held call that can end by the cutoff,
	// and the expected held-call count is the offered load in Erlangs
	// (Σ rate × mean hold). 1.25x headroom absorbs load fluctuations
	// without pinning double the steady-state footprint — at 10^6 cells
	// a 2x hint alone added hundreds of MB of permanently-dead heap
	// capacity.
	// Mailboxes take no hint: they borrow pages from the kernel's pool
	// while they hold records and hold none between barriers.
	for si := 0; si < part.NumShards(); si++ {
		t := part.Tile(si)
		var rate float64
		for c := t.Lo; c < t.Hi; c++ {
			if r := spec.Profile.MaxRate(c); r > 0 {
				rate += r
			}
		}
		if err := p.ReserveShard(si, t.Cells()+64+int(1.25*rate*spec.MeanHold*byCutoff)); err != nil {
			return nil, err
		}
	}
	g := newGenerator(p, spec)
	p.EachShard(g.prime)
	return &PrimedParallel{p: p, g: g}, nil
}

// Finish drains the primed workload to completion (arrivals stop at
// Duration, held calls drain afterwards) and merges the per-shard
// tallies — in shard order, so the result is deterministic.
func (r *PrimedParallel) Finish() (Stats, error) {
	p, g := r.p, r.g
	if g.spec.DrainHorizon > 0 {
		// Truncated drain: run to the cutoff (window boundaries and
		// barrier samples before it are exactly the full drain's), then
		// force the rest quiescent, counting the requests it cancels.
		// The forced sweep is canonical (ascending cell, then ascending
		// channel), so the truncated trajectory is as deterministic as
		// the full one, at any worker and shard count.
		cutoff := g.spec.Duration + g.spec.DrainHorizon
		if !p.DrainUntil(cutoff, 2_000_000_000) {
			return g.result(), fmt.Errorf("traffic: truncated drain hit its event backstop before cutoff %d: %d events pending, %d requests outstanding (per shard: %s), sim time %d",
				cutoff, p.Pending(), p.Outstanding(), shardOutstandingSummary(p.ShardOutstanding()), p.Now(0))
		}
		_, cancelled := p.ForceQuiesce()
		g.stats.Cancelled = uint64(cancelled)
		if p.Outstanding() != 0 {
			return g.result(), fmt.Errorf("traffic: %d requests still outstanding after forced quiesce (per shard: %s), sim time %d",
				p.Outstanding(), shardOutstandingSummary(p.ShardOutstanding()), p.Now(0))
		}
	} else {
		if !p.Drain(2_000_000_000) {
			return g.result(), fmt.Errorf("traffic: simulation did not quiesce: %d events pending, %d requests outstanding (per shard: %s), sim time %d",
				p.Pending(), p.Outstanding(), shardOutstandingSummary(p.ShardOutstanding()), p.Now(0))
		}
		if p.Outstanding() != 0 {
			return g.result(), fmt.Errorf("traffic: %d requests still outstanding after drain (per shard: %s), sim time %d (no events pending)",
				p.Outstanding(), shardOutstandingSummary(p.ShardOutstanding()), p.Now(0))
		}
	}
	return g.result(), nil
}

// shardOutstandingSummary renders per-shard outstanding-request counts
// for drain diagnostics: only shards with in-flight requests, capped so
// a giant-grid shard count cannot flood the error message.
func shardOutstandingSummary(per []int) string {
	const cap = 8
	var b strings.Builder
	listed, nonzero := 0, 0
	for si, n := range per {
		if n == 0 {
			continue
		}
		nonzero++
		if listed < cap {
			if listed > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "shard%d:%d", si, n)
			listed++
		}
	}
	if nonzero == 0 {
		return "none"
	}
	if nonzero > listed {
		fmt.Fprintf(&b, " +%d more shards", nonzero-listed)
	}
	return b.String()
}
