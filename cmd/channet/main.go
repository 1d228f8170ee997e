// Command channet demonstrates the allocation protocol as an actual
// distributed system: the cells are partitioned across several nodes in
// this process, each listening on its own localhost TCP port, and every
// control message between cells on different nodes crosses a real
// socket through the binary codec.
//
// The signaling plane can be degraded with -drop/-dup/-reorder/-jitter;
// a sequence-numbered ack/retransmit layer then restores the
// reliable-FIFO contract, and -timeout bounds each request's lifetime
// so a wedged link becomes a counted denial instead of a hang.
//
// Observability: -metrics serves the Prometheus text format over HTTP
// (protocol metrics aggregated across all nodes in this process plus
// per-node transport counters summed at scrape time); -journal writes
// one JSON object per protocol event; -linger keeps the endpoint up
// after the run for scraping.
//
//	channet -nodes 4 -calls 40
//	channet -drop 0.02 -dup 0.01 -jitter 200us -timeout 10s
//	channet -metrics :9090 -journal run.jsonl -linger 1m
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/hexgrid"
	"repro/internal/metrics"
	"repro/internal/netrun"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/transport"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process: it parses args, runs the cluster,
// writes the report to stdout and diagnostics to stderr, and returns
// the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("channet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		nNodes      = fs.Int("nodes", 4, "number of TCP nodes to partition the cells across")
		calls       = fs.Int("calls", 40, "concurrent calls to place in one interference region")
		chans       = fs.Int("channels", 21, "spectrum size (21 = 3 primaries per cell)")
		scheme      = fs.String("scheme", "adaptive", "allocation scheme")
		drop        = fs.Float64("drop", 0, "per-message drop probability injected at each node")
		dup         = fs.Float64("dup", 0, "per-message duplication probability")
		reorder     = fs.Float64("reorder", 0, "per-message reordering probability")
		jitter      = fs.Duration("jitter", 0, "max extra per-message latency (uniform in [0, jitter])")
		seed        = fs.Uint64("seed", 1, "fault-injection seed")
		timeout     = fs.Duration("timeout", 15*time.Second, "per-request deadline (0 disables the watchdog)")
		metricsAddr = fs.String("metrics", "", "serve Prometheus text metrics at this address (e.g. :9090)")
		journalPath = fs.String("journal", "", "write a JSONL event journal to this file")
		linger      = fs.Duration("linger", 0, "keep the metrics endpoint up this long after the run")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}

	oc := &scenario.ObsConfig{}
	if *journalPath != "" {
		jf, err := os.Create(*journalPath)
		if err != nil {
			return fail(err)
		}
		defer jf.Close()
		oc.Journal = jf
	}
	// One factory (and so one protocol instrument bundle) is shared by
	// every node in this process: same-named counters aggregate across
	// cells, so the endpoint reports fleet-wide protocol totals.
	p, err := scenario.Build(scenario.Scenario{Scheme: *scheme, Wrap: true, Channels: *chans, Obs: oc})
	if err != nil {
		return fail(err)
	}
	defer p.Journal.Close()
	grid := p.Grid

	var srv *obs.Server
	if *metricsAddr != "" {
		srv, err = obs.Serve(*metricsAddr, p.Registry)
		if err != nil {
			return fail(err)
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "metrics: http://%s/metrics\n", srv.Addr())
	}

	var fault *transport.FaultConfig
	if *drop > 0 || *dup > 0 || *reorder > 0 || *jitter > 0 {
		fault = &transport.FaultConfig{
			Seed: *seed, Drop: *drop, Duplicate: *dup, Reorder: *reorder,
			JitterMax: *jitter,
		}
		if err := fault.Validate(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "fault model: drop=%.3f dup=%.3f reorder=%.3f jitter≤%v (seed %d), reliability layer on\n",
			*drop, *dup, *reorder, *jitter, *seed)
	}

	parts := make([][]hexgrid.CellID, *nNodes)
	owner := make(map[hexgrid.CellID]int)
	for c := 0; c < grid.NumCells(); c++ {
		parts[c%*nNodes] = append(parts[c%*nNodes], hexgrid.CellID(c))
		owner[hexgrid.CellID(c)] = c % *nNodes
	}
	nodes := make([]*netrun.Node, *nNodes)
	for i := range nodes {
		cfg := netrun.Config{
			Cells: parts[i], LatencyTicks: 10, Seed: uint64(i) + 1,
			RequestTimeout: *timeout,
			Obs:            p.Registry, Journal: p.Journal,
		}
		if fault != nil {
			f := *fault
			f.Seed = *seed + uint64(i)
			cfg.Fault = &f
		}
		n, err := netrun.NewNode(grid, p.Assign, p.Factory, "127.0.0.1:0", cfg)
		if err != nil {
			return fail(err)
		}
		nodes[i] = n
		fmt.Fprintf(stdout, "node %d: %s hosting %d cells\n", i, n.Addr(), len(parts[i]))
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	routes := make(map[hexgrid.CellID]string)
	for c, i := range owner {
		routes[c] = nodes[i].Addr()
	}
	for _, n := range nodes {
		n.SetRoutes(routes)
	}

	center := grid.InteriorCell()
	region := append([]hexgrid.CellID{center}, grid.Interference(center)...)
	fmt.Fprintf(stdout, "\nplacing %d calls across the %d-cell interference region of cell %d...\n",
		*calls, len(region), center)

	var wg sync.WaitGroup
	var mu sync.Mutex
	granted, denied := 0, 0
	for i := 0; i < *calls; i++ {
		cell := region[i%len(region)]
		host := nodes[owner[cell]]
		wg.Add(1)
		go func(cell hexgrid.CellID, host *netrun.Node, hold time.Duration) {
			defer wg.Done()
			done := make(chan netrun.Result, 1)
			host.Request(cell, func(r netrun.Result) { done <- r })
			select {
			case r := <-done:
				mu.Lock()
				if r.Granted {
					granted++
				} else {
					denied++
				}
				mu.Unlock()
				if r.Granted {
					time.Sleep(hold)
					host.Release(r.Cell, r.Ch)
				}
			case <-time.After(30 * time.Second):
				fmt.Fprintln(stderr, "request timed out")
			}
		}(cell, host, time.Duration(5+i%20)*time.Millisecond)
	}
	wg.Wait()
	for i, n := range nodes {
		if !n.WaitSettled(10 * time.Second) {
			return fail(fmt.Errorf("node %d did not settle", i))
		}
	}

	var agg transport.Stats
	var tally metrics.Tally
	for _, n := range nodes {
		agg.Add(n.Stats())
		tally.Add("deadline denials", n.DeadlineDenials())
		tally.Add("messages abandoned", n.Abandoned())
		tally.Add("bad releases", n.BadReleases())
	}
	tally.Add("messages sent", agg.Total)
	tally.Add("wire bytes", agg.Bytes)
	tally.Add("drops injected", agg.DropsInjected)
	tally.Add("dups injected", agg.DupsInjected)
	tally.Add("reorders injected", agg.ReordersInjected)
	tally.Add("retransmits", agg.Retransmits)
	tally.Add("dups suppressed", agg.DupsSuppressed)
	tally.Add("acks sent", agg.AcksSent)
	tally.Add("retry budget exhausted", agg.RetryExhausted)

	fmt.Fprintf(stdout, "granted %d, denied %d\n\n%s\n", granted, denied, tally.String())
	// Committed-outcome interference check: each node's own, among the
	// cells it hosts, then a sweep across the whole grid.
	for _, n := range nodes {
		if err := n.Violation(); err != nil {
			return fail(err)
		}
	}
	for c := 0; c < grid.NumCells(); c++ {
		a := hexgrid.CellID(c)
		ua := nodes[owner[a]].InUse(a)
		if ua.Empty() {
			continue
		}
		for _, b := range grid.Interference(a) {
			if ua.Intersects(nodes[owner[b]].InUse(b)) {
				return fail(fmt.Errorf("INTERFERENCE between %d and %d", a, b))
			}
		}
	}
	fmt.Fprintln(stdout, "no co-channel interference across the distributed run")
	if srv != nil && *linger > 0 {
		fmt.Fprintf(stdout, "metrics: lingering at http://%s/metrics for %v\n", srv.Addr(), *linger)
		time.Sleep(*linger)
	}
	return 0
}
