// Livegrid: the adaptive protocol on the live concurrent runtime — every
// base station on one event loop, real message passing in wall-clock
// time. A burst of concurrent callers hammers an interference
// neighborhood from separate goroutines; the committed-outcome checker
// proves no co-channel interference ever occurred.
package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/hexgrid"
	"repro/internal/livenet"
	"repro/internal/scenario"
)

func main() {
	p, err := scenario.Build(scenario.Scenario{Wrap: true, Channels: 21}) // only 3 primaries per cell
	if err != nil {
		panic(err)
	}
	grid := p.Grid
	net := livenet.New(grid, p.Assign, p.Factory, livenet.Options{
		Delay:        150 * time.Microsecond, // wire latency
		LatencyTicks: 10,
		Seed:         99,
	})
	defer net.Stop()

	center := grid.InteriorCell()
	targets := append([]hexgrid.CellID{center}, grid.Interference(center)...)
	fmt.Printf("hammering %d cells of one interference region from %d goroutines...\n",
		len(targets), len(targets)*4)

	var wg sync.WaitGroup
	var mu sync.Mutex
	granted, denied := 0, 0
	for i, cell := range targets {
		for k := 0; k < 4; k++ {
			wg.Add(1)
			cell := cell
			hold := time.Duration(1+(i+k)%4) * time.Millisecond
			go func() {
				defer wg.Done()
				done := make(chan livenet.Result, 1)
				net.Request(cell, func(r livenet.Result) { done <- r })
				r := <-done
				mu.Lock()
				if r.Granted {
					granted++
				} else {
					denied++
				}
				mu.Unlock()
				if r.Granted {
					time.Sleep(hold)
					net.Release(r.Cell, r.Ch)
				}
			}()
		}
	}
	wg.Wait()
	if !net.WaitSettled(10 * time.Second) {
		panic("network did not settle")
	}
	if err := net.Violation(); err != nil {
		panic(err)
	}
	fmt.Printf("completed: %d granted, %d denied (spectrum has only 21 channels)\n", granted, denied)
	fmt.Printf("control messages: %d\n", net.Messages().Total)
	fmt.Println("no co-channel interference across all interleavings — Theorem 1 held live")
}
