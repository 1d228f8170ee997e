package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the harness made into a layer. Times are
// nanoseconds since the tracer was created; Parent indexes the span
// that was open when this one began (-1 for a root).
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
}

// tracer keeps the benchmark's own spans in memory until the run ends.
// A nil *tracer is the tracing-off state: begin and add do nothing, so
// the untraced and traced repetitions share one code path. All calls
// come from the goroutine driving the repetition (the kernel's barrier
// hook runs on the goroutine that called Finish), so there is no lock.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: t.since(), Parent: t.parent(), Workload: t.workload})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].End = t.since()
		t.open = t.open[:len(t.open)-1]
	}
}

// add records a span whose bounds were stamped elsewhere (the run and
// drain phases inside Finish) as a child of the innermost open span.
func (t *tracer) add(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		Name: name, Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
		Parent: t.parent(), Workload: t.workload,
	})
}

// ringSize is the driver trace-ring length of a repetition: traced runs
// keep the most recent lifecycle events (per shard) so the Trace() span
// times a real canonical merge; untraced runs keep none.
func (t *tracer) ringSize() int {
	if t == nil {
		return 0
	}
	return 1024
}

func (t *tracer) since() int64 { return time.Since(t.epoch).Nanoseconds() }

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// spanTotal aggregates every span of one name.
type spanTotal struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	// SelfS is the total minus the time covered by child spans.
	SelfS float64 `json:"self_s"`
}

// totals folds the spans by name; a span's self time is its duration
// minus its direct children's.
func (t *tracer) totals() map[string]spanTotal {
	if t == nil {
		return nil
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]spanTotal{}
	for i, s := range t.spans {
		d := s.End - s.Start
		st := out[s.Name]
		st.Count++
		st.TotalS += float64(d) / 1e9
		st.SelfS += float64(d-child[i]) / 1e9
		out[s.Name] = st
	}
	return out
}

// write dumps the spans to <dir>/trace-<workload>.json.
func (t *tracer) write(dir string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+t.workload+".json"), data, 0o644)
}
