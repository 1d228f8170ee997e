// Command benchmark is the repository's benchmark: four named workloads
// run in fresh child processes, eight end-to-end metrics, and a layer
// pass whose unit costs are reconciled against the end-to-end
// wall-clock. See README.md in this directory.
//
//	go run ./benchmark                          full report (all workloads + layer pass)
//	go run ./benchmark -workload tcp-borrow     one workload
//	go run ./benchmark -layers                  the layer pass alone
//	go run ./benchmark -compare A.json B.json   judge report B against report A
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1
//	                                            one driver invocation (BENCHMARK.json)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options is the parsed command line.
type options struct {
	workload string
	seed     uint64
	seedSet  bool
	seconds  int
	trace    int
	toy      bool
	layers   bool
	compare  bool
	outDir   string
	child    bool
	rep      repOpts
	args     []string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all four)")
	fs.Uint64Var(&o.seed, "seed", 0, "workload seed (default: each workload's pinned seed)")
	fs.IntVar(&o.seconds, "seconds", 0, "driver mode: repeat the workload for this many seconds and print one result line")
	fs.IntVar(&o.trace, "trace", 0, "driver mode: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	fs.BoolVar(&o.toy, "toy", false, "run every workload at its toy size (seconds, for tests)")
	fs.BoolVar(&o.layers, "layers", false, "run the layer pass alone")
	fs.BoolVar(&o.compare, "compare", false, "compare two report files: -compare A.json B.json")
	fs.StringVar(&o.outDir, "out", "benchmark/out", "directory for report.json and trace-<workload>.json")
	fs.BoolVar(&o.child, "child", false, "internal: run one repetition and print its result")
	fs.BoolVar(&o.rep.traced, "traced", false, "internal: child records spans")
	fs.IntVar(&o.rep.workers, "workers", 0, "internal: child overrides the shard worker count")
	fs.StringVar(&o.rep.scheme, "scheme", "", "internal: child overrides the allocation scheme")
	fs.BoolVar(&o.rep.noCheck, "nocheck", false, "internal: child runs without the per-grant interference checker")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	fs.Visit(func(f *flag.Flag) { o.seedSet = o.seedSet || f.Name == "seed" })
	o.rep.toy, o.rep.outDir = o.toy, o.outDir
	o.args = fs.Args()
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	switch {
	case o.child:
		err = runChild(o, stdout)
	case o.compare:
		return runCompare(o.args, stdout, stderr)
	case o.seconds > 0:
		err = runDriver(o, stdout)
	default:
		err = runReport(o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// runChild executes one repetition in this (fresh) process and prints
// its result as one JSON line.
func runChild(o options, stdout io.Writer) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	res, err := runRep(w, o.seed, o.rep)
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// seedFor is the seed a workload runs with: -seed when given, else the
// workload's pinned default.
func (o options) seedFor(w workload) uint64 {
	if o.seedSet {
		return o.seed
	}
	return w.seed
}

// selected lists the workloads the command line asks for.
func (o options) selected() ([]workload, error) {
	if o.workload == "" {
		return workloads, nil
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	return []workload{w}, nil
}

var started = time.Now()
