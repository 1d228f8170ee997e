package traffic

import (
	"testing"

	"repro/internal/chanset"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/raceflag"
	"repro/internal/registry"
	"repro/internal/sim"
)

// TestGeneratorCallAllocatesNothing: one call's whole life — arrival,
// request, local grant (interference-checked), scheduled release,
// release — is typed events and a typed continuation end to end, so in
// steady state it allocates nothing on either driver. (AllocsPerRun is
// not meaningful under -race; CI runs this in a non-race step.)
func TestGeneratorCallAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	// Duration 1: every candidate is accepted (uniform rate) and plants
	// no successor, so a drain ends with the call's release.
	spec := Spec{Profile: Uniform{PerCell: 0.01}, MeanHold: 50, Duration: 1, Seed: 5}
	serial := buildSim(t, "adaptive", 70, 1)
	g := serial.Grid()
	assign, err := chanset.Assign(g, 70)
	if err != nil {
		t.Fatal(err)
	}
	f, err := registry.Build("adaptive", g, assign, registry.Config{Latency: 10})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := driver.NewParallel(g, assign, f, driver.ParallelOptions{Latency: 10, Seed: 1, Shards: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]*driver.Sim{"serial": serial, "sharded": sharded} {
		gen := newGenerator(h, spec)
		cell := hexgrid.CellID(24)
		call := func() {
			gen.HandleEvent(sim.Event{Kind: sim.KindArrival, Cell: int32(cell)}, sim.Attachment{})
			if !h.Drain(64) {
				t.Fatalf("%s: call did not drain", name)
			}
		}
		for i := 0; i < 64; i++ { // warm the free lists, maps and queues
			call()
		}
		before := h.Stats().Grants
		if allocs := testing.AllocsPerRun(500, call); allocs != 0 {
			t.Errorf("%s driver: %.1f allocations per generated call, want 0", name, allocs)
		}
		if got := h.Stats().Grants - before; got < 400 {
			t.Fatalf("%s: only %d of 501 candidate arrivals became calls — thinning rejected the rest?", name, got)
		}
	}
}
