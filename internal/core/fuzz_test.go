package core

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/lamport"
	"repro/internal/message"
	"repro/internal/sim"
)

// stationState is everything Handle may change in a station.
type stationState struct {
	slab, u        []uint64
	grants         []grant
	deferQ         []deferred
	clock          lamport.Clock
	mode, waiting  int32
	awaitN, rounds int32
	pending, warm  bool
	sent           int
}

func stateOf(a *Adaptive, env *stubEnv) stationState {
	st := stationState{
		slab: slices.Clone(a.slab), clock: a.clock, mode: a.mode, waiting: a.waiting,
		awaitN: a.awaitN, rounds: a.rounds, pending: a.pending, warm: a.Warm(), sent: len(env.sent),
	}
	if a.blk != nil {
		st.u, st.grants, st.deferQ = slices.Clone(a.blk.u), slices.Clone(a.blk.grants), slices.Clone(a.blk.deferQ)
	}
	return st
}

// FuzzStationDropsMalformed decodes arbitrary bytes as a stream of wire
// frames and hands each one to a cold station and to a warm one (a held
// channel, a borrowing neighbor, a neighbor's channel and a pending
// grant). Handle must never panic, and a frame it counts in BadMessages
// must change nothing — no reply, no Lamport tick, no stored bit — and
// in particular leave the cold station cold. The seed corpus in
// testdata/fuzz is the table of TestMalformedMessagesAreCountedDrops,
// one encoded frame per file.
func FuzzStationDropsMalformed(f *testing.F) {
	const channels, cell = 70, hexgrid.CellID(40)
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 9, Height: 9, ReuseDistance: 2})
	fac, err := NewFactory(g, chanset.MustAssign(g, channels), DefaultParams(10))
	if err != nil {
		f.Fatal(err)
	}
	station := func(warm bool) (*Adaptive, *stubEnv) {
		a := fac.New(cell).(*Adaptive)
		env := &stubEnv{id: cell, neighbors: g.Interference(cell), rand: sim.NewRand(1)}
		a.Start(env)
		if warm {
			nbr := a.neighbors()[3]
			a.Request(1)
			a.Handle(message.Message{Kind: message.ChangeMode, From: nbr, To: cell, Mode: message.ModeBorrowing})
			a.Handle(message.Message{Kind: message.Acquisition, From: a.neighbors()[5], To: cell, Ch: 33})
			a.Handle(message.Message{Kind: message.Request, Req: message.ReqUpdate, From: nbr, To: cell, Ch: 34,
				TS: lamport.Stamp{Time: 3, Node: int32(nbr)}})
		}
		env.take()
		return a, env
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cold, coldEnv := station(false)
		warm, warmEnv := station(true)
		if cold.Warm() || !warm.Warm() {
			t.Fatal("the stations did not start cold and warm")
		}
		for len(data) > 0 {
			m, n, err := message.Decode(data)
			if err != nil {
				return
			}
			data = data[n:]
			for _, s := range []struct {
				a   *Adaptive
				env *stubEnv
			}{{cold, coldEnv}, {warm, warmEnv}} {
				before, bad := stateOf(s.a, s.env), s.a.counters.BadMessages
				s.a.Handle(m)
				if s.a.counters.BadMessages != bad {
					if after := stateOf(s.a, s.env); !reflect.DeepEqual(before, after) {
						t.Fatalf("%v was counted bad but changed the station (warm at start %v):\nbefore %+v\nafter  %+v", m, before.warm, before, after)
					}
				}
				s.env.take()
			}
		}
	})
}

// TestFuzzCorpusIsTheMalformedTable: the checked-in seed corpus of
// FuzzStationDropsMalformed holds every row of the malformed-message
// table, encoded, so plain `go test` replays all of them.
func TestFuzzCorpusIsTheMalformedTable(t *testing.T) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 9, Height: 9, ReuseDistance: 2})
	frames := malformedFrames(70, 40, g.Interference(40)[3])
	seeds := readFuzzCorpus(t, "FuzzStationDropsMalformed")
	for _, fr := range frames {
		if !slices.ContainsFunc(seeds, func(b []byte) bool { return slices.Equal(b, message.Encode(nil, fr.m)) }) {
			t.Errorf("%s: not in testdata/fuzz/FuzzStationDropsMalformed", fr.name)
		}
	}
	if len(seeds) != len(frames) {
		t.Errorf("corpus has %d entries, the table %d rows", len(seeds), len(frames))
	}
}

// readFuzzCorpus reads the []byte seeds of a fuzz target's checked-in
// corpus (the "go test fuzz v1" file format).
func readFuzzCorpus(t *testing.T, target string) [][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var seeds [][]byte
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		header, value, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		lit, okPrefix := strings.CutPrefix(value, "[]byte(")
		lit, okSuffix := strings.CutSuffix(lit, ")")
		seed, err := strconv.Unquote(lit)
		if header != "go test fuzz v1" || !okPrefix || !okSuffix || err != nil {
			t.Fatalf("%s: not a one-[]byte corpus entry", e.Name())
		}
		seeds = append(seeds, []byte(seed))
	}
	return seeds
}
