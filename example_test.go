package adca_test

import (
	"bytes"
	"fmt"
	"strings"

	"repro"
)

// The basic request/release cycle: a lightly loaded cell serves from
// its primary channels with zero messages and zero delay. Request
// returns an id that reappears as Result.ID in the callback.
func Example() {
	net := adca.MustNew(adca.Scenario{
		Scheme: "adaptive", Wrap: true, Seed: 1, CheckInterference: true,
	})
	id := net.Request(0, func(r adca.Result) {
		fmt.Println("request", r.ID, "granted:", r.Granted, "acquire ticks:", r.AcquireTicks)
	})
	net.RunUntilIdle()
	st := net.Stats()
	fmt.Println("issued:", id, "messages:", st.Messages)
	// Output:
	// request 1 granted: true acquire ticks: 0
	// issued: 1 messages: 0
}

// Scenario.Obs turns on the observability layer: labeled metrics
// readable in-process (or served as Prometheus text via MetricsAddr)
// and a JSONL event journal.
func ExampleNetwork_Metrics() {
	var journal bytes.Buffer
	net := adca.MustNew(adca.Scenario{
		Wrap: true, Seed: 1,
		Obs: &adca.ObsConfig{Journal: &journal},
	})
	net.Request(0, nil)
	net.RunUntilIdle()
	net.Close() // flushes the journal
	fmt.Println("local grants:", net.Metrics()[`adca_grants_total{path="local"}`])
	fmt.Println("journaled events:", journal.Len() > 0)
	// Output:
	// local grants: 1
	// journaled events: true
}

// WriteMetrics renders the same metrics in the Prometheus text
// exposition format; here, the one family that splits grants by path.
func ExampleNetwork_WriteMetrics() {
	net := adca.MustNew(adca.Scenario{Wrap: true, Seed: 1, Obs: &adca.ObsConfig{}})
	net.Request(0, nil)
	net.RunUntilIdle()
	var text bytes.Buffer
	if err := net.WriteMetrics(&text); err != nil {
		panic(err)
	}
	for _, line := range strings.Split(text.String(), "\n") {
		if strings.Contains(line, "adca_grants_total") {
			fmt.Println(line)
		}
	}
	// Output:
	// # HELP adca_grants_total Successful channel acquisitions by path (local/update/search; the paper's xi1/xi2/xi3).
	// # TYPE adca_grants_total counter
	// adca_grants_total{path="local"} 1
	// adca_grants_total{path="search"} 0
	// adca_grants_total{path="update"} 0
}

// Schemes lists every allocation scheme this library implements: the
// paper's adaptive hybrid and its comparison baselines.
func ExampleSchemes() {
	for _, s := range adca.Schemes() {
		fmt.Println(s)
	}
	// Output:
	// adaptive
	// advanced-update
	// allocated-search
	// basic-search
	// basic-update
	// fixed
}

// RunWorkload drives Poisson call traffic and reports telephony-level
// outcomes; runs are deterministic per seed.
func ExampleNetwork_RunWorkload() {
	net := adca.MustNew(adca.Scenario{Scheme: "fixed", Wrap: true, Seed: 7})
	ws, err := net.RunWorkload(adca.Workload{
		ErlangPerCell: 2,
		DurationTicks: 30_000,
		Seed:          7,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("blocked more than offered:", ws.Blocked > ws.Offered)
	// Output:
	// blocked more than offered: false
}
