package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/netrun"
	"repro/internal/registry"
	"repro/internal/trace"
)

// tcpRoundTimeout is how long a tcp-borrow round may wait for its
// answer before it counts as failed.
const tcpRoundTimeout = 10 * time.Second

// tcpRun is the tcp-borrow cluster, set up: the RunNetworkBench set-up
// (two nodes on loopback TCP, 7x7 wrapped grid, 21 channels, cells
// striped across the nodes, 20 µs ticks, latency 10 ticks) with one
// cell's primaries exhausted and the links dialled, so every timed round
// is a borrow whose permission exchange crosses the socket.
type tcpRun struct {
	grid   *hexgrid.Grid
	nodes  []*netrun.Node
	cell   hexgrid.CellID
	rounds int
	done   chan netrun.Result
	timer  *time.Timer
}

func prepareTCP(p params, seed uint64, tr *tracer) (prepared, error) {
	grid, assign, err := gridAndPlan(7, 7, 21, nil)
	if err != nil {
		return nil, err
	}
	factory, err := registry.Build("adaptive", grid, assign, registry.Config{Latency: 10})
	if err != nil {
		return nil, err
	}
	t := &tcpRun{
		grid: grid, cell: grid.InteriorCell(), rounds: p.rounds,
		done: make(chan netrun.Result, 1), timer: time.NewTimer(tcpRoundTimeout),
	}
	parts := make([][]hexgrid.CellID, 2)
	for c := 0; c < grid.NumCells(); c++ {
		parts[c%2] = append(parts[c%2], hexgrid.CellID(c))
	}
	for i := range parts {
		end := tr.begin("netrun.NewNode")
		n, err := netrun.NewNode(grid, assign, factory, "127.0.0.1:0", netrun.Config{
			Cells: parts[i], LatencyTicks: 10, Seed: seed + uint64(i), TickDuration: 20 * time.Microsecond,
		})
		end()
		if err != nil {
			t.close()
			return nil, err
		}
		t.nodes = append(t.nodes, n)
	}
	routes := map[hexgrid.CellID]string{}
	for c := 0; c < grid.NumCells(); c++ {
		routes[hexgrid.CellID(c)] = t.nodes[c%2].Addr()
	}
	for _, n := range t.nodes {
		end := tr.begin("netrun.SetRoutes")
		n.SetRoutes(routes)
		end()
	}
	// Exhaust the primaries, then make one borrow round: its permission
	// exchange dials both directions, so no timed round pays for a dial —
	// and none is left to fail against a listener that close() has
	// already shut, which netrun treats as fatal.
	end := tr.begin("exhaust primaries")
	defer end()
	for i := 0; i <= assign.Primary[t.cell].Len(); i++ {
		r, ok := t.request()
		if !ok || !r.Granted {
			t.close()
			return nil, fmt.Errorf("tcp-borrow set-up: request %d of cell %d not granted", i, t.cell)
		}
		if i == assign.Primary[t.cell].Len() {
			t.host().Release(r.Cell, r.Ch)
		}
	}
	return t, nil
}

func (t *tcpRun) close() {
	t.timer.Stop()
	for _, n := range t.nodes {
		n.Close()
	}
}

// host is the node that owns the borrowing cell.
func (t *tcpRun) host() *netrun.Node { return t.nodes[int(t.cell)%2] }

// request submits one request and waits for its answer; ok is false
// when none came within tcpRoundTimeout.
func (t *tcpRun) request() (r netrun.Result, ok bool) {
	if !t.timer.Stop() {
		select {
		case <-t.timer.C:
		default:
		}
	}
	t.timer.Reset(tcpRoundTimeout)
	t.host().Request(t.cell, func(r netrun.Result) { t.done <- r })
	select {
	case r = <-t.done:
		return r, true
	case <-t.timer.C:
		return r, false
	}
}

// fabric sums both nodes' message and wire-byte counters.
func (t *tcpRun) fabric() (msgs, bytes uint64) {
	for _, n := range t.nodes {
		s := n.FabricStats()
		msgs += s.Total
		bytes += s.Bytes
	}
	return
}

// run is the closed loop, one client: the caller waits for its grant
// before it can release, and each round is timed on its own.
func (t *tcpRun) run(tr *tracer) (repResult, error) {
	res := repResult{Cells: t.grid.NumCells()}
	if tr != nil {
		res.Trace = &traceResult{}
	}
	host := t.host()
	msgs0, bytes0 := t.fabric()
	lat := make([]float64, 0, t.rounds)
	before := readRunCounters()
	t1 := time.Now()
	for i := 0; i < t.rounds; i++ {
		res.Attempted++
		end := tr.begin("netrun.Request")
		s := time.Now()
		r, ok := t.request()
		d := time.Since(s)
		end()
		if !ok {
			res.Failed++
			res.Error = fmt.Sprintf("round %d not answered within %v", i, tcpRoundTimeout)
			break
		}
		if !r.Granted {
			res.Failed++
			if res.Error == "" {
				res.Error = fmt.Sprintf("round %d denied", i)
			}
			continue
		}
		lat = append(lat, float64(d.Nanoseconds())/1e3)
		end = tr.begin("netrun.Release")
		host.Release(r.Cell, r.Ch)
		end()
	}
	res.RunS = time.Since(t1).Seconds()
	before.finish(&res)
	msgs1, bytes1 := t.fabric()
	res.Rounds = uint64(len(lat))
	res.Offered = res.Rounds // a round is one offered call
	res.WireMsgs, res.WireBytes = msgs1-msgs0, bytes1-bytes0
	sort.Float64s(lat)
	res.RoundP50Us, res.RoundP99Us = percentile(lat, 0.50), percentile(lat, 0.99)

	// Theorem 1 over the live cluster; InUse runs on each station's own
	// goroutine, so the snapshot is consistent per cell.
	end := tr.begin("trace.CheckAll")
	err := trace.NewInterferenceChecker(t.grid, func(c hexgrid.CellID) chanset.Set {
		return t.nodes[int(c)%2].InUse(c)
	}).CheckAll()
	end()
	if err != nil {
		// A violated invariant makes every round of the repetition suspect.
		res.Failed = res.Attempted
		res.Error = fmt.Sprintf("invariant: %v", err)
	}
	return res, nil
}
