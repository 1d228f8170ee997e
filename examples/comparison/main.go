// Comparison: all six schemes across low, moderate and high uniform
// load — a compact version of the paper's Tables 1-3 showing who pays
// what, and where the static/dynamic crossover falls.
package main

import (
	"fmt"

	"repro"
)

func main() {
	loads := []float64{1, 6, 10} // Erlang per cell (~10 primaries each)
	for _, erlang := range loads {
		fmt.Printf("=== uniform load: %.0f Erlang per cell ===\n", erlang)
		fmt.Printf("%-16s %10s %12s %12s %8s\n",
			"scheme", "blocking", "msgs/call", "acq (T)", "ξ1")
		for _, scheme := range adca.Schemes() {
			net := adca.MustNew(adca.Scenario{
				Scheme:            scheme,
				GridWidth:         7,
				Wrap:              true,
				Channels:          70,
				Seed:              7,
				CheckInterference: true,
			})
			ws, err := net.RunWorkload(adca.Workload{
				ErlangPerCell: erlang,
				MeanHoldTicks: 3000,
				DurationTicks: 150_000,
				WarmupTicks:   15_000,
				Seed:          7,
			})
			if err != nil {
				panic(err)
			}
			st := net.Stats()
			xi1 := 0.0
			if g := st.LocalGrants + st.UpdateGrants + st.SearchGrants; g > 0 {
				xi1 = float64(st.LocalGrants) / float64(g)
			}
			fmt.Printf("%-16s %10.4f %12.2f %12.2f %8.3f\n",
				scheme, ws.BlockingProbability, st.MessagesPerRequest,
				st.MeanAcquireTicks/10, xi1)
		}
		fmt.Println()
	}
	fmt.Println("shape to notice: at 1 Erlang the adaptive scheme is free (ξ1=1,")
	fmt.Println("0 messages) while basic-search/update pay 2N/4N per call; at 6")
	fmt.Println("Erlang dynamic schemes block less than fixed; at 10 Erlang uniform")
	fmt.Println("saturation favors fixed packing, and the adaptive scheme degrades")
	fmt.Println("into bounded search instead of unbounded update retries.")
}
