// Mobility: calls move between cells mid-conversation (the handoff
// procedure of the paper's system model, §2.1). A handoff drops when the
// new cell cannot allocate a channel; dropping an ongoing call is far
// worse for users than blocking a new one. This example compares how
// fixed and adaptive allocation cope as mobility grows.
package main

import (
	"fmt"

	"repro"
)

func main() {
	fmt.Println("uniform 6 Erlang/cell; calls hand off to adjacent cells mid-call")
	fmt.Println()
	fmt.Printf("%-22s %-10s %12s %12s %12s\n",
		"mobility", "scheme", "new blocked", "handoffs", "handoff drop")
	for _, handoffsPerCall := range []float64{0.5, 2, 4} {
		for _, scheme := range []string{"fixed", "adaptive"} {
			net := adca.MustNew(adca.Scenario{
				Scheme:            scheme,
				GridWidth:         7,
				Wrap:              true,
				Channels:          70,
				Seed:              3,
				CheckInterference: true,
			})
			ws, err := net.RunWorkload(adca.Workload{
				ErlangPerCell: 6,
				MeanHoldTicks: 3000,
				HandoffRate:   handoffsPerCall / 3000,
				DurationTicks: 150_000,
				WarmupTicks:   15_000,
				Seed:          3,
			})
			if err != nil {
				panic(err)
			}
			fmt.Printf("%-22s %-10s %12.4f %12d %12.4f\n",
				fmt.Sprintf("%.1f handoffs/call", handoffsPerCall), scheme,
				ws.BlockingProbability(), ws.HandoffAttempts, ws.HandoffDropProbability())
		}
	}
	fmt.Println()
	fmt.Println("the adaptive scheme lends channels to wherever the moving calls")
	fmt.Println("cluster, holding handoff drops an order of magnitude below fixed")
	fmt.Println("allocation at every mobility level.")
}
