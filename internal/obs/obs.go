// Package obs is the observability layer: a Registry of labelled func
// collectors rendered as Prometheus text over HTTP (expose.go), and a
// structured JSONL event Journal (journal.go).
//
// A collector counts nothing itself. The code under observation keeps
// its own tallies — the ones its reports are made of — and a collector
// reads them at collection time through the func it was registered
// with. So there is one set of counters, and an unobserved run pays
// nothing: with a nil *Registry every registration is a no-op.
//
// Registration stacks: several collectors registered under one name and
// one set of label values expose their sum, so the components sharing a
// Registry (the nodes of a distributed run) report totals.
package obs

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// metric family kinds.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) promType() string {
	return [...]string{"counter", "gauge", "histogram"}[k]
}

// HistogramValue is what a histogram collector reports: the number of
// observations at or below each bound of its family, in bound order,
// the number of all observations and their sum.
type HistogramValue struct {
	Cumulative []uint64
	Count      uint64
	Sum        float64
}

// family is one named metric with a fixed label schema.
type family struct {
	name   string
	help   string
	kind   kind
	labels []string
	bounds []float64 // histograms only

	mu     sync.Mutex
	series []*series
}

// series is one set of label values of a family and the collectors
// registered for it.
type series struct {
	values []string
	key    string
	fns    []func() float64        // counters and gauges: their sum
	hists  []func() HistogramValue // histograms: their bucket-wise sum
}

// Registry holds metric families. The zero value is not usable; New
// returns a ready Registry, and a nil *Registry is the disabled layer.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// New returns an empty Registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// CounterFunc registers a counter read from fn at collection time. labels
// are the series' label names and values, alternating ("path", "local").
// fn must be safe to call from any goroutine. Nil-safe.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, kindCounter, nil, labels, series{fns: []func() float64{fn}})
}

// GaugeFunc registers a gauge read from fn at collection time, labelled
// as CounterFunc's. Nil-safe.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, kindGauge, nil, labels, series{fns: []func() float64{fn}})
}

// HistogramFunc registers an unlabelled histogram with the given
// ascending bucket upper bounds (+Inf is implicit), read from fn at
// collection time; fn reports one cumulative count per bound. Nil-safe.
func (r *Registry) HistogramFunc(name, help string, bounds []float64, fn func() HistogramValue) {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: %s bucket bounds not ascending: %v", name, bounds))
		}
	}
	r.register(name, help, kindHistogram, bounds, nil, series{hists: []func() HistogramValue{fn}})
}

// register adds c's collectors to the series of the named family that
// labels select, creating either on first use; a no-op on a nil
// Registry. A re-registration with a matching shape joins the existing
// family; a conflicting shape panics — that is a wiring bug, not a
// runtime condition.
func (r *Registry) register(name, help string, k kind, bounds []float64, labels []string, c series) {
	if r == nil {
		return
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: %s labels %q are not name/value pairs", name, labels))
	}
	var names, values []string
	for i := 0; i < len(labels); i += 2 {
		names, values = append(names, labels[i]), append(values, labels[i+1])
	}
	r.mu.Lock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, labels: names, bounds: slices.Clone(bounds)}
		r.families[name] = f
	}
	r.mu.Unlock()
	if f.kind != k || !slices.Equal(f.labels, names) || !slices.Equal(f.bounds, bounds) {
		panic(fmt.Sprintf("obs: conflicting registration of %s", name))
	}
	key := strings.Join(values, "\x1f")
	f.mu.Lock()
	defer f.mu.Unlock()
	i, found := slices.BinarySearchFunc(f.series, key, func(s *series, key string) int { return strings.Compare(s.key, key) })
	if !found {
		f.series = slices.Insert(f.series, i, &series{values: values, key: key})
	}
	s := f.series[i]
	s.fns = append(s.fns, c.fns...)
	s.hists = append(s.hists, c.hists...)
}

// collect reads every collector: for each family in name order, head(f)
// and then sample once per exposition line, series in label-value
// order, with the line's name suffix, its rendered labels and value.
// Collectors run with no lock held.
func (r *Registry) collect(head func(f *family), sample func(f *family, suffix, labels string, v float64)) {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		if head != nil {
			head(f)
		}
		f.mu.Lock()
		ser := make([]series, len(f.series))
		for i, s := range f.series {
			ser[i] = series{values: s.values, fns: slices.Clone(s.fns), hists: slices.Clone(s.hists)}
		}
		f.mu.Unlock()
		for _, s := range ser {
			labels := labelString(f.labels, s.values, "")
			if f.kind != kindHistogram {
				var v float64
				for _, fn := range s.fns {
					v += fn()
				}
				sample(f, "", labels, v)
				continue
			}
			h := HistogramValue{Cumulative: make([]uint64, len(f.bounds))}
			for _, fn := range s.hists {
				v := fn()
				for i, c := range v.Cumulative {
					h.Cumulative[i] += c
				}
				h.Count += v.Count
				h.Sum += v.Sum
			}
			for i, b := range f.bounds {
				sample(f, "_bucket", labelString(f.labels, s.values, formatValue(b)), float64(h.Cumulative[i]))
			}
			sample(f, "_bucket", labelString(f.labels, s.values, "+Inf"), float64(h.Count))
			sample(f, "_sum", labels, h.Sum)
			sample(f, "_count", labels, float64(h.Count))
		}
	}
}

// Snapshot returns every sample as exposition-style key → value:
// `name` for unlabelled series, `name{k="v",...}` for labelled ones, and
// `name_bucket{le="..."}` / `name_sum` / `name_count` for histograms.
// Nil-safe (returns nil).
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	out := make(map[string]float64)
	r.collect(nil, func(f *family, suffix, labels string, v float64) {
		out[f.name+suffix+labels] = v
	})
	return out
}
