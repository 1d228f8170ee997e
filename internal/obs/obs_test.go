package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := New()
	count, level := 5.0, 1.5
	r.CounterFunc("c_total", "a counter", func() float64 { return count })
	r.GaugeFunc("g", "a gauge", func() float64 { return level })
	r.HistogramFunc("h_ticks", "a histogram", []float64{1, 10, 100}, func() HistogramValue {
		return HistogramValue{Cumulative: []uint64{2, 3, 4}, Count: 5, Sum: 5056.5}
	})
	snap := r.Snapshot()
	if snap["c_total"] != 5 || snap["g"] != 1.5 {
		t.Fatalf("counter %v, gauge %v", snap["c_total"], snap["g"])
	}
	if snap[`h_ticks_bucket{le="1"}`] != 2 || snap[`h_ticks_bucket{le="10"}`] != 3 ||
		snap[`h_ticks_bucket{le="100"}`] != 4 || snap[`h_ticks_bucket{le="+Inf"}`] != 5 ||
		snap["h_ticks_count"] != 5 || snap["h_ticks_sum"] != 5056.5 {
		t.Fatalf("hist buckets: %v", snap)
	}
	// Collectors are read at collection time, not at registration.
	count, level = 7, -2
	if snap := r.Snapshot(); snap["c_total"] != 7 || snap["g"] != -2 {
		t.Fatalf("second collection: %v", snap)
	}
}

func TestLabelledRegistrationStacks(t *testing.T) {
	r := New()
	r.CounterFunc("req_total", "requests", func() float64 { return 2 }, "path", "search")
	r.CounterFunc("req_total", "requests", func() float64 { return 5 }, "path", "local")
	// Re-registration with the same shape and label values stacks (the
	// nodes of one process share a registry).
	r.CounterFunc("req_total", "requests", func() float64 { return 1 }, "path", "search")
	snap := r.Snapshot()
	if snap[`req_total{path="search"}`] != 3 || snap[`req_total{path="local"}`] != 5 {
		t.Fatalf("labelled series: %v", snap)
	}
	for _, conflict := range []func(){
		func() { r.GaugeFunc("req_total", "now a gauge", func() float64 { return 0 }, "path", "local") },
		func() { r.CounterFunc("req_total", "other labels", func() float64 { return 0 }, "kind", "local") },
		func() { r.CounterFunc("req_total", "odd labels", func() float64 { return 0 }, "path") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("conflicting registration must panic")
				}
			}()
			conflict()
		}()
	}
}

func TestFuncCollectorsSum(t *testing.T) {
	r := New()
	r.CounterFunc("retrans_total", "retransmits", func() float64 { return 3 })
	r.CounterFunc("retrans_total", "retransmits", func() float64 { return 4 })
	r.HistogramFunc("h", "", []float64{1}, func() HistogramValue { return HistogramValue{Cumulative: []uint64{1}, Count: 2, Sum: 3} })
	r.HistogramFunc("h", "", []float64{1}, func() HistogramValue { return HistogramValue{Cumulative: []uint64{4}, Count: 4, Sum: 4} })
	snap := r.Snapshot()
	if got := snap["retrans_total"]; got != 7 {
		t.Fatalf("func sum = %v", got)
	}
	if snap[`h_bucket{le="1"}`] != 5 || snap[`h_bucket{le="+Inf"}`] != 6 || snap["h_sum"] != 7 {
		t.Fatalf("histogram sum: %v", snap)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.CounterFunc("f", "", func() float64 { return 1 }, "l", "a")
	r.GaugeFunc("f2", "", func() float64 { return 1 })
	r.HistogramFunc("v", "", []float64{1}, func() HistogramValue { return HistogramValue{} })
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	var j *Journal
	j.Emit(1, "x", 0)
	if j.Events() != 0 || j.Flush() != nil || j.Close() != nil {
		t.Fatal("nil journal must no-op")
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := New()
	r.CounterFunc("adca_grants_total", "grants by path", func() float64 { return 7 }, "path", "local")
	r.GaugeFunc("adca_outstanding", "in flight", func() float64 { return 2 })
	r.HistogramFunc("adca_acquire_ticks", "acq delay", []float64{10, 20}, func() HistogramValue {
		return HistogramValue{Cumulative: []uint64{0, 1}, Count: 1, Sum: 15}
	})
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE adca_acquire_ticks histogram",
		`adca_acquire_ticks_bucket{le="10"} 0`,
		`adca_acquire_ticks_bucket{le="20"} 1`,
		`adca_acquire_ticks_bucket{le="+Inf"} 1`,
		"adca_acquire_ticks_sum 15",
		"adca_acquire_ticks_count 1",
		"# TYPE adca_grants_total counter",
		`adca_grants_total{path="local"} 7`,
		"# TYPE adca_outstanding gauge",
		"adca_outstanding 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Families must come out sorted by name.
	if strings.Index(out, "adca_acquire_ticks") > strings.Index(out, "adca_grants_total") {
		t.Fatal("families not sorted")
	}
}

func TestServeEndpoint(t *testing.T) {
	r := New()
	r.CounterFunc("up_total", "liveness", func() float64 { return 1 })
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := &http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(string(body), "up_total 1") {
		t.Fatalf("body: %s", body)
	}
}

func TestJournalJSONL(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.Emit(10, "mode", 4, FI("old", 0), FI("new", 1), F("pred", 0.25))
	j.Emit(11, "grant", 4, FS("path", "local"), FI("ch", 3))
	j.Emit(12, "net", -1)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if j.Events() != 3 {
		t.Fatalf("events = %d", j.Events())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines: %q", lines)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if rec["t"] != float64(10) || rec["type"] != "mode" || rec["cell"] != float64(4) ||
		rec["old"] != float64(0) || rec["new"] != float64(1) || rec["pred"] != 0.25 {
		t.Fatalf("record: %v", rec)
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["path"] != "local" || rec["ch"] != float64(3) {
		t.Fatalf("record: %v", rec)
	}
}

func TestJournalConcurrent(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				j.Emit(int64(k), "e", i, FI("k", int64(k)))
			}
		}(i)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 400 {
		t.Fatalf("lines = %d", len(lines))
	}
	for i, ln := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("line %d corrupt: %v (%q)", i, err, ln)
		}
	}
}

func ExampleRegistry_WritePrometheus() {
	r := New()
	r.CounterFunc("adca_grants_total", "grants by path", func() float64 { return 3 }, "path", "local")
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	fmt.Print(buf.String())
	// Output:
	// # HELP adca_grants_total grants by path
	// # TYPE adca_grants_total counter
	// adca_grants_total{path="local"} 3
}
