package core_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestTallyMatchesJournal: the counts Tally derives instead of storing —
// update rounds rejected, search rounds, mode changes by direction and
// the DeferQ depth — against an independent witness, the journal's
// borrow_rejected, search, mode and defer records, a defer standing until
// its cell's next grant or deny (acquire drains DeferQ_i). Checked with
// the kernel parked mid-run, rounds in flight, and at quiescence, on a
// borrowing-heavy 19-cell patch: one cell's interference region at reuse
// distance 2. (hexgrid wraps only rectangles, and no rectangle has 19
// cells.)
func TestTallyMatchesJournal(t *testing.T) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Hexagon, Radius: 2, ReuseDistance: 2})
	assign := chanset.MustAssign(g, 21)
	f, err := core.NewFactory(g, assign, core.DefaultParams(10))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	j := obs.NewJournal(&buf)
	f.Journal = j
	s := driver.New(g, assign, f, driver.Options{Latency: 10, Seed: 5, Check: true})
	e, rng := s.Engine(), sim.NewRand(5)
	at := sim.Time(0)
	for range 3000 {
		at += rng.ExpTicks(2)
		cell, hold := hexgrid.CellID(rng.Intn(g.NumCells())), rng.ExpTicks(60)
		e.At(at, func() {
			s.Request(cell, func(r driver.Result) {
				if r.Granted {
					e.After(hold, func() { s.Release(r.Cell, r.Ch) })
				}
			})
		})
	}

	var want alloc.Tally // the journal's counts, read as it grows
	standing := map[int]uint64{}
	var inFlight, deferred bool
	check := func(when string) {
		t.Helper()
		if err := j.Flush(); err != nil {
			t.Fatal(err)
		}
		for buf.Len() > 0 {
			var rec struct {
				Type string
				Cell int
				New  int
			}
			line, err := buf.ReadBytes('\n')
			if err == nil {
				err = json.Unmarshal(line, &rec)
			}
			if err != nil {
				t.Fatal(err)
			}
			switch rec.Type {
			case "borrow_rejected":
				want.Rejected++
			case "search":
				want.Searches++
			case "mode":
				if rec.New == core.ModeBorrow {
					want.ToBorrowing++
				} else {
					want.ToLocal++
				}
			case "defer":
				standing[rec.Cell]++
			case "grant", "deny":
				delete(standing, rec.Cell)
			}
		}
		want.DeferDepth = 0
		for _, n := range standing {
			want.DeferDepth += n
		}
		var got alloc.Tally
		for c := range g.NumCells() {
			got.Add(alloc.TallyOf(s.Allocator(hexgrid.CellID(c))))
		}
		if got.Rejected != want.Rejected || got.Searches != want.Searches || got.ToBorrowing != want.ToBorrowing ||
			got.ToLocal != want.ToLocal || got.DeferDepth != want.DeferDepth {
			t.Fatalf("%s: derived rejected %d, searches %d, to borrowing %d, to local %d, defer depth %d;\njournal %d, %d, %d, %d, %d",
				when, got.Rejected, got.Searches, got.ToBorrowing, got.ToLocal, got.DeferDepth,
				want.Rejected, want.Searches, want.ToBorrowing, want.ToLocal, want.DeferDepth)
		}
		if got.ToBorrowing+got.ToLocal != got.ModeChanges {
			t.Fatalf("%s: %d + %d transitions, %d mode changes", when, got.ToBorrowing, got.ToLocal, got.ModeChanges)
		}
		inFlight = inFlight || got.UpdateAttempts != got.GrantsUpdate+got.Rejected || got.Searches != got.GrantsSearch+got.Drops
		deferred = deferred || got.DeferDepth > 0
	}
	for until := sim.Time(5); until < at; until += 7 {
		s.Run(until)
		check("mid-run")
	}
	if !s.Drain(10_000_000) {
		t.Fatal("no quiescence")
	}
	check("quiescence")
	if !inFlight || !deferred || want.Rejected == 0 || want.Searches == 0 {
		t.Fatalf("the workload never stopped with a round in flight (%v) or a request deferred (%v), or rejected no round (%d) or searched none (%d)",
			inFlight, deferred, want.Rejected, want.Searches)
	}
}
