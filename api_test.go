package adca_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro"
)

func TestScenarioValidation(t *testing.T) {
	cases := []struct {
		name string
		sc   adca.Scenario
		want string // substring of the error
	}{
		{"negative width", adca.Scenario{GridWidth: -7}, "GridWidth"},
		{"negative height", adca.Scenario{GridHeight: -1}, "GridHeight"},
		{"negative reuse", adca.Scenario{ReuseDistance: -2}, "ReuseDistance"},
		{"negative channels", adca.Scenario{Channels: -70}, "Channels"},
		{"negative latency", adca.Scenario{LatencyTicks: -10}, "LatencyTicks"},
		{"negative jitter", adca.Scenario{JitterTicks: -1}, "JitterTicks"},
		{"negative rounds", adca.Scenario{MaxRounds: -3}, "MaxRounds"},
		{"theta low", adca.Scenario{
			Adaptive: &adca.AdaptiveParams{ThetaLow: 0, ThetaHigh: 3, WindowTicks: 10},
		}, "ThetaLow"},
		{"theta band", adca.Scenario{
			Adaptive: &adca.AdaptiveParams{ThetaLow: 3, ThetaHigh: 3, WindowTicks: 10},
		}, "ThetaHigh"},
		{"negative alpha", adca.Scenario{
			Adaptive: &adca.AdaptiveParams{ThetaLow: 1, ThetaHigh: 3, Alpha: -1, WindowTicks: 10},
		}, "Alpha"},
		{"zero window", adca.Scenario{
			Adaptive: &adca.AdaptiveParams{ThetaLow: 1, ThetaHigh: 3},
		}, "WindowTicks"},
		{"unknown scheme", adca.Scenario{Scheme: "nope"}, "unknown scheme"},
		// One cell past what the event kernel's packed key addresses
		// (4096 x 4096 = 2^24): refused before the grid is built.
		{"grid too large", adca.Scenario{GridWidth: 4096, GridHeight: 4096}, "16777215 origins"},
		{"square grid too large", adca.Scenario{GridWidth: 4097}, "16777215 origins"},
		// Sides whose product overflows int: refused by the limit, not
		// wrapped past it into a grid the allocator cannot hold.
		{"side past the limit", adca.Scenario{GridWidth: 1 << 32}, "16777215 origins"},
		{"square overflowing int", adca.Scenario{GridWidth: 3037000500}, "16777215 origins"},
	}
	for _, c := range cases {
		_, err := adca.New(c.sc)
		if err == nil {
			t.Errorf("%s: no error for %+v", c.name, c.sc)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
		if _, perr := adca.NewParallel(c.sc); perr == nil || perr.Error() != err.Error() {
			t.Errorf("%s: NewParallel says %v, New says %v", c.name, perr, err)
		}
	}
}

func TestSchemesContents(t *testing.T) {
	got := adca.Schemes()
	want := []string{"adaptive", "advanced-update", "allocated-search",
		"basic-search", "basic-update", "fixed"}
	if len(got) != len(want) {
		t.Fatalf("Schemes() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Schemes() = %v, want %v (sorted)", got, want)
		}
	}
}

func TestRequestIDMonotonic(t *testing.T) {
	net := adca.MustNew(adca.Scenario{Wrap: true, Seed: 9})
	var completed []adca.RequestID
	record := func(r adca.Result) { completed = append(completed, r.ID) }
	// RequestAt schedules later but takes its id now; ids must be
	// monotonic in call order regardless of fire order.
	var issued []adca.RequestID
	issued = append(issued, net.Request(0, record))
	issued = append(issued, net.RequestAt(100, 1, record))
	issued = append(issued, net.Request(2, record))
	issued = append(issued, net.RequestAt(50, 3, record))
	for i, id := range issued {
		if int64(id) != int64(i+1) {
			t.Fatalf("issued ids = %v, want 1..4 in call order", issued)
		}
	}
	if !net.RunUntilIdle() {
		t.Fatal("no quiescence")
	}
	if len(completed) != 4 {
		t.Fatalf("completed %d of 4", len(completed))
	}
	seen := map[adca.RequestID]bool{}
	for _, id := range completed {
		if id < 1 || id > 4 || seen[id] {
			t.Fatalf("completed ids = %v", completed)
		}
		seen[id] = true
	}
}

// TestStatsMatchMetrics: the metrics are the run's own counts, for every
// scheme — the journal's protocol records and the borrowing they witness
// are the adaptive scheme's alone.
func TestStatsMatchMetrics(t *testing.T) {
	for _, scheme := range adca.Schemes() {
		t.Run(scheme, func(t *testing.T) { statsMatchMetrics(t, scheme) })
	}
}

func statsMatchMetrics(t *testing.T, scheme string) {
	var journal bytes.Buffer
	net := adca.MustNew(adca.Scenario{
		Scheme: scheme, Wrap: true, Seed: 11, CheckInterference: true,
		Obs: &adca.ObsConfig{Journal: &journal},
	})
	defer net.Close()
	if _, err := net.RunWorkload(adca.Workload{
		ErlangPerCell: 9, DurationTicks: 30_000, Seed: 11,
	}); err != nil {
		t.Fatal(err)
	}
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	st := net.Stats()
	m := net.Metrics()
	if m == nil {
		t.Fatal("Metrics() nil with Obs enabled")
	}
	checks := map[string]uint64{
		`adca_grants_total{path="local"}`:  st.LocalGrants,
		`adca_grants_total{path="update"}`: st.UpdateGrants,
		`adca_grants_total{path="search"}`: st.SearchGrants,
		"adca_denies_total":                st.ProtocolDenies,
		"adca_borrow_attempts_total":       st.UpdateAttempts,
		"adca_deferred_total":              st.Deferred,
		"adca_requests_granted_total":      st.Grants,
		"adca_requests_denied_total":       st.Denies,
		"adca_transport_messages_total":    st.Messages,
		"adca_requests_outstanding":        0,
	}
	for key, want := range checks {
		if got := m[key]; got != float64(want) {
			t.Errorf("%s = %v, want %d", key, got, want)
		}
	}
	trans := m[`adca_mode_transitions_total{from="local",to="borrowing"}`] +
		m[`adca_mode_transitions_total{from="borrowing",to="local"}`]
	if trans != float64(st.ModeChanges) {
		t.Errorf("mode transitions = %v, want %d", trans, st.ModeChanges)
	}
	if scheme == "adaptive" && (st.ModeChanges == 0 || st.UpdateAttempts == 0) {
		t.Errorf("9 Erlang/cell should exercise borrowing: %+v", st)
	}
	// The histogram's count must equal the number of grants.
	if got := m["adca_acquire_ticks_count"]; got != float64(st.Grants) {
		t.Errorf("acquire histogram count = %v, want %d", got, st.Grants)
	}
	// Journal: parseable JSONL with the expected record shape.
	if journal.Len() == 0 {
		t.Fatal("journal empty")
	}
	types := map[string]int{}
	scan := bufio.NewScanner(&journal)
	scan.Buffer(make([]byte, 1<<20), 1<<20)
	for scan.Scan() {
		var rec struct {
			T    *int64  `json:"t"`
			Type *string `json:"type"`
			Cell *int    `json:"cell"`
		}
		if err := json.Unmarshal(scan.Bytes(), &rec); err != nil {
			t.Fatalf("journal line not JSON: %v (%s)", err, scan.Text())
		}
		if rec.T == nil || rec.Type == nil || rec.Cell == nil {
			t.Fatalf("journal record missing t/type/cell: %s", scan.Text())
		}
		types[*rec.Type]++
	}
	kinds := []string{"request", "result"}
	if scheme == "adaptive" {
		kinds = append(kinds, "grant", "mode", "borrow")
	}
	for _, want := range kinds {
		if types[want] == 0 {
			t.Errorf("journal has no %q records (have %v)", want, types)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	net := adca.MustNew(adca.Scenario{
		Wrap: true, Seed: 12,
		Obs: &adca.ObsConfig{MetricsAddr: "127.0.0.1:0"},
	})
	defer net.Close()
	if net.MetricsAddr() == "" {
		t.Fatal("no metrics address")
	}
	if _, err := net.RunWorkload(adca.Workload{
		ErlangPerCell: 9, DurationTicks: 20_000, Seed: 12,
	}); err != nil {
		t.Fatal(err)
	}
	cl := &http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get("http://" + net.MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE adca_grants_total counter",
		`adca_grants_total{path="local"}`,
		"adca_mode_transitions_total",
		"adca_transport_messages_total",
		"# TYPE adca_acquire_ticks histogram",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	if net.MetricsAddr() != "" {
		t.Fatal("address should clear after Close")
	}
	if err := net.Close(); err != nil { // double Close is fine
		t.Fatal(err)
	}
}

// Observability must not perturb the protocol: the same seed produces
// identical outcomes with and without instrumentation.
func TestObsPreservesDeterminism(t *testing.T) {
	run := func(withObs bool) adca.Stats {
		sc := adca.Scenario{Wrap: true, Seed: 42}
		if withObs {
			sc.Obs = &adca.ObsConfig{Journal: io.Discard}
		}
		net := adca.MustNew(sc)
		defer net.Close()
		if _, err := net.RunWorkload(adca.Workload{
			ErlangPerCell: 8, DurationTicks: 30_000, Seed: 42,
		}); err != nil {
			t.Fatal(err)
		}
		return net.Stats()
	}
	if run(false) != run(true) {
		t.Fatal("instrumentation changed protocol outcomes")
	}
}

// TestShardedObsMatchesStats: Scenario.Obs on the sharded kernel is
// bound, not dropped — a 7-shard 2-worker run satisfies the Stats <->
// metrics identities of TestStatsMatchMetrics (the registry reads what
// the coordinator publishes, so this also runs under -race), a one-shard
// run accepts a journal, and a journal with more shards is a descriptive
// error.
func TestShardedObsMatchesStats(t *testing.T) {
	sc := adca.Scenario{Wrap: true, Seed: 11, CheckInterference: true, Obs: &adca.ObsConfig{}}
	w := adca.Workload{ErlangPerCell: 9, DurationTicks: 30_000, Seed: 11}
	net, err := adca.NewParallel(sc, adca.WithShards(7), adca.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if _, err := net.RunWorkload(w); err != nil {
		t.Fatal(err)
	}
	st, m := net.Stats(), net.Metrics()
	if st.ModeChanges == 0 || st.UpdateAttempts == 0 || st.Messages == 0 {
		t.Fatalf("9 Erlang/cell should exercise borrowing: %+v", st)
	}
	for key, want := range map[string]uint64{
		`adca_grants_total{path="local"}`:  st.LocalGrants,
		`adca_grants_total{path="update"}`: st.UpdateGrants,
		`adca_grants_total{path="search"}`: st.SearchGrants,
		"adca_denies_total":                st.ProtocolDenies,
		"adca_borrow_attempts_total":       st.UpdateAttempts,
		"adca_deferred_total":              st.Deferred,
		"adca_requests_granted_total":      st.Grants,
		"adca_requests_denied_total":       st.Denies,
		"adca_transport_messages_total":    st.Messages,
		"adca_requests_outstanding":        0,
		"adca_acquire_ticks_count":         st.Grants,
		"adca_defer_queue_depth":           0,
	} {
		if got, ok := m[key]; !ok || got != float64(want) {
			t.Errorf("%s = %v (present: %v), want %d", key, got, ok, want)
		}
	}
	trans := m[`adca_mode_transitions_total{from="local",to="borrowing"}`] +
		m[`adca_mode_transitions_total{from="borrowing",to="local"}`]
	if trans != float64(st.ModeChanges) {
		t.Errorf("mode transitions = %v, want %d", trans, st.ModeChanges)
	}
	// The same scenario on the serial kernel: the same integers.
	serial := adca.MustNew(sc)
	defer serial.Close()
	if _, err := serial.RunWorkload(w); err != nil {
		t.Fatal(err)
	}
	if sst := serial.Stats(); sst.Grants != st.Grants || sst.Denies != st.Denies || sst.Messages != st.Messages || sst.ModeChanges != st.ModeChanges {
		t.Errorf("7 shards: %+v\nserial:   %+v", st, sst)
	}

	var journal bytes.Buffer
	sc.Obs = &adca.ObsConfig{Journal: &journal}
	one, err := adca.NewParallel(sc, adca.WithShards(1))
	if err != nil {
		t.Fatalf("a journal at one shard: %v", err)
	}
	if _, err := one.RunWorkload(w); err != nil {
		t.Fatal(err)
	}
	if err := one.Close(); err != nil || journal.Len() == 0 {
		t.Errorf("a journal at one shard: Close says %v, %d bytes written", err, journal.Len())
	}
	if _, err := adca.NewParallel(sc, adca.WithShards(7)); err == nil || !strings.Contains(err.Error(), "a journal needs one shard, got 7") {
		t.Errorf("a journal at 7 shards: error %v, want the one-shard rule", err)
	}
}

// TestShardedObsScrapesMidRun: a scrape may run while the sharded kernel
// does. It reads the snapshot the coordinator last published — at a
// window barrier, at most every 100 T — so under -race nothing it reads
// races a shard worker; no counter goes backwards from one scrape to the
// next; a scrape from inside the run (a request's callback, on a shard
// worker) sees the run under way; and once the run is over the last
// scrape is Stats.
func TestShardedObsScrapesMidRun(t *testing.T) {
	net, err := adca.NewParallel(adca.Scenario{Wrap: true, Seed: 11, Obs: &adca.ObsConfig{}}, adca.WithShards(7), adca.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	counter := func(key string) bool {
		name, _, _ := strings.Cut(key, "{")
		return strings.HasSuffix(name, "_total") || strings.HasPrefix(name, "adca_acquire_ticks")
	}
	stop, scraped := make(chan struct{}), make(chan int)
	go func() {
		n, last := 0, net.Metrics()
		for {
			select {
			case <-stop:
				scraped <- n
				return
			default:
			}
			m := net.Metrics()
			for key, v := range last {
				if counter(key) && m[key] < v {
					t.Errorf("scrape %d: %s fell from %v to %v", n, key, v, m[key])
				}
			}
			n, last = n+1, m
			time.Sleep(100 * time.Microsecond)
		}
	}()
	const midRun = 15_000
	var during map[string]float64
	net.RequestAt(midRun, net.CenterCell(), func(adca.Result) { during = net.Metrics() })
	if _, err := net.RunWorkload(adca.Workload{ErlangPerCell: 9, DurationTicks: 30_000, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	close(stop)
	t.Logf("%d scrapes during the run", <-scraped)
	st, m := net.Stats(), net.Metrics()
	if g := during["adca_requests_granted_total"]; g == 0 || g >= float64(st.Grants) {
		t.Errorf("at tick %d the metrics showed %v grants, of %d in the run", midRun, g, st.Grants)
	}
	for key, want := range map[string]uint64{
		`adca_grants_total{path="local"}`:  st.LocalGrants,
		`adca_grants_total{path="update"}`: st.UpdateGrants,
		`adca_grants_total{path="search"}`: st.SearchGrants,
		"adca_denies_total":                st.ProtocolDenies,
		"adca_borrow_attempts_total":       st.UpdateAttempts,
		"adca_deferred_total":              st.Deferred,
		"adca_requests_granted_total":      st.Grants,
		"adca_requests_denied_total":       st.Denies,
		"adca_transport_messages_total":    st.Messages,
		"adca_acquire_ticks_count":         st.Grants,
	} {
		if got := m[key]; got != float64(want) {
			t.Errorf("after the run %s = %v, want %d", key, got, want)
		}
	}
}
