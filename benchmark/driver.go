package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// driverResult is the last line a driver invocation prints: the shape
// BENCHMARK.json's contract fixes.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runDriver is one invocation by the benchmark driver:
//
//	--workload W --seed N --seconds S --trace 0|1
//
// With --trace 0 it repeats W in fresh children for about S seconds and
// reports the median of every end-to-end metric BENCHMARK.json lists —
// on every workload, so tcp-borrow's line has the run_s and calls_per_s
// its report leaves to rounds_per_s.
// With --trace 1 it runs one untraced and one traced repetition of W,
// the variants behind W's per-layer metrics and the layer pass, and
// reports every per-layer metric BENCHMARK.json lists; one whose layer
// is idle on W (a count or a ratio, never a time) reads 0, as all of W's
// own do when an operation failed.
func runDriver(o options, stdout io.Writer) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	seed := o.seedFor(w)
	res := driverResult{Metrics: map[string]metricValue{}}
	rep := report{Host: thisHost(), Toy: o.toy}
	var wr workloadReport
	if o.trace == 0 {
		m, err := measure(w, seed, o.rep, forSeconds(o.seconds))
		if err != nil {
			return err
		}
		wr = workloadReportOf(m, nil, nil)
		for _, d := range e2eDefs {
			if d.driverBound > 0 {
				res.Metrics[d.name] = metricValue{Unit: d.unit, Value: median(m.values(d.value))}
			}
		}
	} else {
		m, err := measure(w, seed, o.rep, oneRep)
		if err != nil {
			return err
		}
		lr, err := runLayerRuns(m, o.rep)
		if err != nil {
			return err
		}
		micro, err := layerPass(o.toy)
		if err != nil {
			return err
		}
		wr = workloadReportOf(m, lr, micro)
		layers := withUnits(micro)
		for _, d := range layerDefs {
			switch {
			case !d.driver:
			case d.perWorkload:
				res.Metrics[d.name] = metricValue{Unit: d.unit, Value: wr.PerLayer[d.name].Value}
			default:
				res.Metrics[d.name] = layers[d.name]
			}
		}
		rep.Layers = layers
	}
	rep.Workloads = []workloadReport{wr}
	rep.TotalS = time.Since(started).Seconds()
	rep.print(stdout)
	res.Attempted, res.Failed = wr.Attempted, wr.Failed
	res.Correct = wr.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return wr.failure()
}
