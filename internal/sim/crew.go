package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// A crew is the set of goroutines that run a kernel's shards for one
// run call, or for one Each made outside a run: min(workers, shards,
// GOMAXPROCS) of them, the caller (the coordinator) being worker 0. The
// others start when the call is entered and stop when it returns, so a
// window costs no goroutine spawn and the same goroutine runs a shard
// window after window, which lets the scheduler keep it, and the
// shard's queue and stations, on one core.
//
// The crew runs phases: a window, a barrier merge, an Each. The
// coordinator publishes a phase's work, moves the epoch and does its
// own share; every other worker waits for the epoch to move, does its
// share and counts itself out. Worker w owns the contiguous block of
// shards [w*n/W, (w+1)*n/W) and runs it in order, then takes unclaimed
// shards from the other blocks' cursors, so a worker done early helps
// the one that is not. A wait spins for up to spinFor, then parks on a
// condition variable.
type crew struct {
	// fn is the phase's work, written by the coordinator before it moves
	// epoch.
	fn    func(shard int)
	epoch atomic.Uint32
	// left counts the workers other than the coordinator still in the
	// phase.
	left atomic.Int32
	// quit, written before the last move of epoch, tells the workers to
	// return.
	quit   bool
	blocks []block
	clocks []workerClock
	wg     sync.WaitGroup

	// Parking. A worker parks on wake with parked counted; the
	// coordinator parks on done with waiting set. Each side counts itself
	// in under mu before it re-reads what it waits for, and the other
	// side takes mu to signal only when it sees that count, so no
	// wake-up is lost and a phase whose crew is spinning takes no lock.
	mu      sync.Mutex
	wake    sync.Cond
	done    sync.Cond
	parked  atomic.Int32
	waiting atomic.Bool
}

// block is one worker's home shards: the next one unclaimed, and the
// end of the block. Padded to a cache line, as each is written by its
// owner on every claim.
type block struct {
	next atomic.Int32
	end  int32
	_    [56]byte
}

// spinFor is how long a wait spins before it parks, reading what it
// waits for and, every clockEvery reads, the clock. On overload-sharded
// a worker waits once a phase, some 10 000 times a run, and at most a
// few dozen of the waits outlast the spin; a parked worker is woken
// onto the waker's run queue, late. A crew left waiting longer, by a
// barrier hook that does real work or by a host with fewer free cores
// than the crew has workers, parks and stops taking CPU from the worker
// it waits for. The spin never yields: two workers that yield while
// they wait go through the scheduler's global run queue and come back
// on each other's processor, or seemingly on one processor between
// them while the other sleeps. DESIGN §9.4 has the measurements.
const (
	spinFor    = 500 * time.Microsecond
	clockEvery = 1024
)

// WorkerTime is where one crew worker's wall clock went: the phases it
// ran, the time it spent in them and the time it waited at their ends
// (for the next phase, or the coordinator, worker 0, for the last
// worker to finish).
type WorkerTime struct {
	Phases     uint64
	Busy, Wait time.Duration
}

// workerClock is a worker's WorkerTime while the crew runs, and the
// phase edge it last read the clock at. Padded like block.
type workerClock struct {
	WorkerTime
	mark time.Duration
	_    [64]byte
}

// clockBase is the origin of the crew's clock reads.
var clockBase = time.Now()

func clock() time.Duration { return time.Since(clockBase) }

// startCrew starts a crew of min(workers, shards, GOMAXPROCS) workers
// and reports whether it did: at most one worker runs inline, with no
// crew.
func (k *Shards) startCrew(workers int) bool {
	n := min(workers, len(k.shards))
	if n > 1 {
		n = min(n, runtime.GOMAXPROCS(0))
	}
	if n <= 1 {
		return false
	}
	c := &crew{blocks: make([]block, n), clocks: make([]workerClock, n)}
	c.wake.L, c.done.L = &c.mu, &c.mu
	for w := range c.blocks {
		c.blocks[w].end = int32((w + 1) * len(k.shards) / n)
	}
	k.crew = c
	c.wg.Add(n - 1)
	for w := 1; w < n; w++ {
		go c.worker(w)
	}
	return true
}

// stopCrew stops the kernel's crew and adds its figures to the
// kernel's. A panic on the coordinator may have left a phase under way:
// what nobody has claimed stays unrun, and the workers finish what they
// hold first.
func (k *Shards) stopCrew() {
	c := k.crew
	k.crew = nil
	for w := range c.blocks {
		c.blocks[w].next.Store(c.blocks[w].end)
	}
	c.awaitWorkers()
	c.quit = true
	c.epoch.Add(1)
	c.mu.Lock()
	c.wake.Broadcast()
	c.mu.Unlock()
	c.wg.Wait()
	if len(k.workerTimes) < len(c.clocks) {
		k.workerTimes = growTo(k.workerTimes, len(c.clocks))
	}
	for w := range c.clocks {
		t, sum := c.clocks[w].WorkerTime, &k.workerTimes[w]
		sum.Phases += t.Phases
		sum.Busy += t.Busy
		sum.Wait += t.Wait
	}
}

// phase calls fn(s) once for every shard s, on the crew when there is
// one, and returns when every call has.
func (k *Shards) phase(fn func(shard int)) {
	c := k.crew
	if c == nil {
		for s := range k.shards {
			fn(s)
		}
		return
	}
	start := clock()
	c.fn = fn
	for w := range c.blocks {
		c.blocks[w].next.Store(int32(w * len(k.shards) / len(c.blocks)))
	}
	c.left.Store(int32(len(c.blocks) - 1))
	c.epoch.Add(1)
	if c.parked.Load() > 0 {
		c.mu.Lock()
		c.wake.Broadcast()
		c.mu.Unlock()
	}
	c.claim(0)
	mine := clock()
	c.awaitWorkers()
	t := &c.clocks[0]
	t.Phases++
	t.Busy += mine - start
	t.Wait += clock() - mine
}

// worker runs worker w's share of every phase until the crew quits.
func (c *crew) worker(w int) {
	defer c.wg.Done()
	t := &c.clocks[w]
	t.mark = clock()
	for seen := uint32(0); ; {
		seen = c.awaitEpoch(seen)
		now := clock()
		t.Wait += now - t.mark
		if c.quit {
			return
		}
		c.claim(w)
		t.mark = clock()
		t.Phases++
		t.Busy += t.mark - now
		if c.left.Add(-1) == 0 && c.waiting.Load() {
			c.mu.Lock()
			c.done.Signal()
			c.mu.Unlock()
		}
	}
}

// claim runs worker w's home block in order, then whatever the other
// blocks have left.
func (c *crew) claim(w int) {
	fn := c.fn
	for i := range c.blocks {
		b := &c.blocks[(w+i)%len(c.blocks)]
		for s := b.next.Add(1) - 1; s < b.end; s = b.next.Add(1) - 1 {
			fn(int(s))
		}
	}
}

// awaitEpoch returns the epoch once it is no longer seen.
func (c *crew) awaitEpoch(seen uint32) uint32 {
	if !spin(func() bool { return c.epoch.Load() != seen }) {
		c.mu.Lock()
		c.parked.Add(1)
		for c.epoch.Load() == seen {
			c.wake.Wait()
		}
		c.parked.Add(-1)
		c.mu.Unlock()
	}
	return c.epoch.Load()
}

// awaitWorkers returns once every worker but the coordinator has left
// the phase.
func (c *crew) awaitWorkers() {
	if spin(func() bool { return c.left.Load() == 0 }) {
		return
	}
	c.mu.Lock()
	c.waiting.Store(true)
	for c.left.Load() != 0 {
		c.done.Wait()
	}
	c.waiting.Store(false)
	c.mu.Unlock()
}

// spin reports whether done holds within spinFor.
func spin(done func() bool) bool {
	deadline := clock() + spinFor
	for i := 1; !done(); i++ {
		if i%clockEvery == 0 && clock() > deadline {
			return false
		}
	}
	return true
}

// WorkerTimes reports, per crew worker, the phases it has run and the
// time it spent busy in them and waiting at their ends, summed over
// every crew the kernel has run; nil when none has (at most one worker).
// Coordinator-context only.
func (k *Shards) WorkerTimes() []WorkerTime {
	return append([]WorkerTime(nil), k.workerTimes...)
}
