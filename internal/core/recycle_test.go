package core

import (
	"math/bits"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"repro/internal/chanset"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/raceflag"
	"repro/internal/traffic"
)

// TestRecyclerReusesOutgrownArrays: a list grows by doubling, its
// outgrown arrays go into the pool of their capacity, and the next list
// to grow to that capacity takes one — with its own contents, not the
// previous owner's. One P and no collection, so that each Get finds
// what the last Put left.
func TestRecyclerReusesOutgrownArrays(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var r recycler[int32]
	var a []int32
	var caps []int
	var outgrown []*int32
	for i := range int32(9) {
		if len(a) == cap(a) && cap(a) > 0 {
			outgrown = append(outgrown, unsafe.SliceData(a))
		}
		a = r.add(a, i)
		caps = append(caps, cap(a))
	}
	if want := []int{1, 2, 4, 4, 8, 8, 8, 8, 16}; !reflect.DeepEqual(caps, want) {
		t.Fatalf("capacities %v, want %v", caps, want)
	}
	// b grows through the capacities a outgrew, taking each of a's old
	// arrays in turn: outgrown[c] has capacity 1<<c.
	var b []int32
	for i := range int32(5) {
		k := cap(b)
		if b = r.add(b, 100+i); cap(b) != k && unsafe.SliceData(b) != outgrown[bits.Len(uint(cap(b)))-1] {
			t.Fatalf("b grew to capacity %d in a fresh array, not the one a outgrew", cap(b))
		}
	}
	if !reflect.DeepEqual(b, []int32{100, 101, 102, 103, 104}) || !reflect.DeepEqual(a, []int32{0, 1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("a = %v, b = %v", a, b)
	}
	// With recycling off, nothing is kept.
	off := recycler[int32]{off: true}
	var c []int32
	for i := range int32(9) {
		c = off.add(c, i)
	}
	if keptArrays(&off) != 0 || !reflect.DeepEqual(c, a) {
		t.Fatalf("recycling off kept %d arrays; c = %v", keptArrays(&off), c)
	}
}

// TestRecycledArraysAcrossWorkers: the cells of one factory, on seven
// shards run by two workers, grow their grant ledgers, DeferQ_i and
// grantor lists through the factory's pools concurrently, each
// taking arrays another shard's cells outgrew and giving back its own.
// The trajectory must be the one a factory with recycling off produces,
// and the pools must have been used. Run it under -race: an array
// given back before it has been copied out is a race with the worker
// that takes it.
func TestRecycledArraysAcrossWorkers(t *testing.T) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 14, Height: 14, ReuseDistance: 2, Wrap: true})
	assign := chanset.MustAssign(g, 70)
	spec := traffic.Spec{
		Profile:  traffic.NewHotspot(g, g.InteriorCell(), 2, 9.0/3000, 16.0/3000),
		MeanHold: 3000, Duration: 3000, Warmup: 500, Seed: 5, WarmStart: true, DrainHorizon: 500,
	}
	type outcome struct {
		stats   driver.Stats
		traffic traffic.Stats
		trace   any
		use     []string
	}
	run := func(recycle bool) (outcome, *Factory) {
		f, err := NewFactory(g, assign, DefaultParams(10))
		if err != nil {
			t.Fatal(err)
		}
		if !recycle {
			f.grantArrays.off, f.deferArrays.off, f.grantorArrays.off = true, true, true
		}
		p, err := driver.NewParallel(g, assign, f, driver.ParallelOptions{Latency: 10, Seed: 5, Shards: 7, Workers: 2, TraceSize: 1 << 16})
		if err != nil {
			t.Fatal(err)
		}
		ts, err := traffic.Run(p, spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.CheckInvariant(); err != nil {
			t.Fatal(err)
		}
		o := outcome{stats: p.Stats(), traffic: ts, trace: p.Trace()}
		for c := range g.NumCells() {
			o.use = append(o.use, p.Allocator(hexgrid.CellID(c)).InUse().String())
		}
		return o, f
	}
	// A collection empties the pools: none, so that what the run kept
	// is still there to count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	plain, _ := run(false)
	got, f := run(true)
	if c := plain.stats.Counters; c.Deferred == 0 || c.GrantsUpdate == 0 {
		t.Fatalf("the workload neither defers nor borrows: %+v", c)
	}
	kept := 0
	for _, n := range []int{keptArrays(&f.grantArrays), keptArrays(&f.deferArrays), keptArrays(&f.grantorArrays)} {
		if n == 0 {
			t.Fatal("a pool kept no outgrown array")
		}
		kept += n
	}
	if !reflect.DeepEqual(got, plain) {
		t.Fatalf("recycled arrays changed the trajectory (%d arrays kept)", kept)
	}
}

// keptArrays empties r's pools and returns how many arrays they held.
func keptArrays[T any](r *recycler[T]) int {
	n := 0
	for c := range r.classes {
		for r.classes[c].Get() != nil {
			n++
		}
	}
	return n
}
