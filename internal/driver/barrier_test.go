package driver

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/message"
)

// idle is an allocator that is never asked for anything.
type idle struct{}

func (idle) Start(alloc.Env)               {}
func (idle) Request(alloc.RequestID)       {}
func (idle) Release(chanset.Channel) error { return nil }
func (idle) Handle(message.Message)        {}
func (idle) InUse() chanset.Set            { return chanset.Set{} }
func (idle) Mode() int                     { return 0 }

type idleFactory struct{}

func (idleFactory) Name() string                       { return "idle" }
func (idleFactory) New(hexgrid.CellID) alloc.Allocator { return idle{} }

// TestBarrierChecksOnlyTheWindowsGrants: above one shard a barrier checks
// the pairs of the cells granted a channel, or moved onto one, in the
// window it ends, and a window with no grant checks no pair: a co-channel
// pair written into the table by no grant goes unreported, though the
// whole-table check sees it.
func TestBarrierChecksOnlyTheWindowsGrants(t *testing.T) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	assign := chanset.MustAssign(g, 70)
	cell := g.InteriorCell()
	neighbor := g.Interference(cell)[0]
	for _, workers := range []int{1, 2} {
		d, err := NewParallel(g, assign, idleFactory{}, Options{Latency: 10, Check: true, Shards: 7, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		d.held.Hold(cell, 3)
		d.held.Hold(neighbor, 3)
		ran := false
		d.At(cell, 5, func() { ran = true })
		d.Run(100) // a window and its barrier: no panic
		if !ran || d.kernel.Windows() == 0 {
			t.Fatalf("%d workers: the event ran %v, in %d windows", workers, ran, d.kernel.Windows())
		}
		for s := range d.shards {
			if n := len(d.shards[s].grew); n != 0 {
				t.Errorf("%d workers: shard %d lists %d cells after a window with no grant", workers, s, n)
			}
		}
		if d.held.CheckAll() == nil {
			t.Fatalf("%d workers: the planted pair is not in the table", workers)
		}
	}
}
