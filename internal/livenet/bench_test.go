package livenet_test

import (
	"testing"
	"time"

	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/livenet"
	"repro/internal/registry"
)

// BenchmarkLiveRequestRelease measures a full request+release round trip
// on the in-process runtime (local grant path: submission onto the
// node's loop, station processing, callback, release).
func BenchmarkLiveRequestRelease(b *testing.B) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	assign := chanset.MustAssign(g, 70)
	f, err := registry.Build("adaptive", g, assign, registry.Config{Latency: 10})
	if err != nil {
		b.Fatal(err)
	}
	n := livenet.New(g, assign, f, livenet.Options{LatencyTicks: 10, Seed: 1})
	defer n.Stop()
	cell := g.InteriorCell()
	done := make(chan livenet.Result, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Request(cell, func(r livenet.Result) { done <- r })
		r := <-done
		if !r.Granted {
			b.Fatal("denied")
		}
		n.Release(r.Cell, r.Ch)
	}
	b.StopTimer()
	if !n.WaitSettled(10 * time.Second) {
		b.Fatal("did not settle")
	}
}
