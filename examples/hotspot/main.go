// Hotspot: the paper's motivating scenario. A temporary hot spot forms
// over a lightly loaded network; static allocation drops calls at the
// hot cell even though neighbors sit on idle channels, while the
// adaptive scheme borrows them. This example measures both.
package main

import (
	"fmt"

	"repro"
)

func main() {
	fmt.Println("temporary hot spot: 25 Erlang at one cell, 0.5 Erlang elsewhere")
	fmt.Println("(each cell owns ~10 primary channels)")
	fmt.Println()
	fmt.Printf("%-16s %10s %12s %12s\n", "scheme", "blocking", "msgs/call", "acq time (T)")
	for _, scheme := range []string{"fixed", "adaptive", "basic-search", "basic-update"} {
		net := adca.MustNew(adca.Scenario{
			Scheme:            scheme,
			GridWidth:         7,
			Wrap:              true,
			Channels:          70,
			Seed:              42,
			CheckInterference: true,
		})
		ws, err := net.RunWorkload(adca.Workload{
			ErlangPerCell: 0.5,
			HotCell:       net.CenterCell(),
			HotErlang:     25,
			MeanHoldTicks: 3000,
			DurationTicks: 200_000,
			WarmupTicks:   20_000,
			Seed:          42,
		})
		if err != nil {
			panic(err)
		}
		st := net.Stats()
		fmt.Printf("%-16s %10.4f %12.2f %12.2f\n",
			scheme, ws.BlockingProbability(), st.MessagesPerRequest, st.MeanAcquireTicks/10)
	}
	fmt.Println()
	fmt.Println("fixed drops a large fraction of hot-cell calls; the dynamic schemes")
	fmt.Println("borrow idle neighbor channels — adaptive does it with far fewer")
	fmt.Println("messages because the cold cells stay in local mode.")
}
