// Command changrid is a live demo of the "one goroutine per base
// station" runtime: it drives a moving hot spot of calls over the
// concurrent network and animates per-cell channel usage and mode as an
// ASCII grid.
//
//	changrid -scheme adaptive -seconds 5
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/hexgrid"
	"repro/internal/livenet"
	"repro/internal/registry"
	"repro/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process: it parses args, animates the grid
// on stdout, writes diagnostics to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("changrid", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scheme  = fs.String("scheme", "adaptive", "allocation scheme: "+strings.Join(registry.Names(), ", "))
		width   = fs.Int("width", 7, "grid width")
		chans   = fs.Int("channels", 35, "spectrum size")
		seconds = fs.Int("seconds", 5, "demo duration")
		fps     = fs.Int("fps", 4, "frames per second")
		seed    = fs.Int64("seed", 1, "workload seed")
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

	p, err := scenario.Build(scenario.Scenario{Scheme: *scheme, GridWidth: *width, Wrap: true, Channels: *chans})
	if err != nil {
		return fail(err)
	}
	grid := p.Grid
	net := livenet.New(grid, p.Assign, p.Factory, livenet.Options{
		Delay: 100 * time.Microsecond, LatencyTicks: 10, Seed: uint64(*seed),
	})
	defer net.Stop()

	// Shared view of committed holdings, maintained from callbacks.
	var mu sync.Mutex
	held := make([]int, grid.NumCells())

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Traffic: a hot spot that drifts across the grid, background churn
	// everywhere.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(*seed))
		hot := grid.InteriorCell()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		step := 0
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			step++
			if step%200 == 0 { // drift the hotspot
				adj := grid.Adjacent(hot)
				hot = adj[rng.Intn(len(adj))]
			}
			cell := hexgrid.CellID(rng.Intn(grid.NumCells()))
			if rng.Float64() < 0.7 {
				cell = hot
			}
			holdFor := time.Duration(20+rng.Intn(400)) * time.Millisecond
			net.Request(cell, func(r livenet.Result) {
				if !r.Granted {
					return
				}
				mu.Lock()
				held[r.Cell]++
				mu.Unlock()
				time.AfterFunc(holdFor, func() {
					net.Release(r.Cell, r.Ch)
					mu.Lock()
					held[r.Cell]--
					mu.Unlock()
				})
			})
		}
	}()

	frames := *seconds * *fps
	for f := 0; f < frames && net.Violation() == nil; f++ {
		time.Sleep(time.Second / time.Duration(*fps))
		mu.Lock()
		frame := render(grid, held, *width)
		mu.Unlock()
		fmt.Fprintf(stdout, "\033[H\033[2J%s", frame)
		fmt.Fprintf(stdout, "scheme=%s grants=%d denies=%d msgs=%d\n",
			*scheme, net.Grants(), net.Denies(), net.Messages().Total)
	}
	close(stop)
	wg.Wait()
	// Let every held call's release timer fire before tearing the
	// network down (max hold is ~420ms).
	time.Sleep(600 * time.Millisecond)
	net.WaitSettled(5 * time.Second)
	if err := net.Violation(); err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, "done: no co-channel interference observed")
	return 0
}

// render draws per-cell active call counts as a staggered hex-ish grid.
func render(g *hexgrid.Grid, held []int, width int) string {
	var b strings.Builder
	b.WriteString("active calls per cell (moving hotspot):\n")
	for r := 0; r < width; r++ {
		if r%2 == 1 {
			b.WriteString("  ")
		}
		for q := 0; q < width; q++ {
			id, ok := g.At(hexgrid.Axial{Q: q, R: r})
			if !ok {
				continue
			}
			n := held[id]
			switch {
			case n == 0:
				b.WriteString(" ·  ")
			case n < 10:
				fmt.Fprintf(&b, " %d  ", n)
			default:
				fmt.Fprintf(&b, "%2d  ", n)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
