package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one (workload, metric) row.
const (
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// row is one line of a comparison: report B judged against report A.
type row struct {
	Workload, Metric string
	A, B             float64
	// Change is B's median relative to A's, positive when worse.
	Change, Bound float64
	Verdict, Note string
}

func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "benchmark: -compare needs two report files: -compare A.json B.json")
		return 2
	}
	var reps [2]report
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &reps[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", path, err)
			return 2
		}
	}
	rows, err := compareReports(reps[0], reps[1])
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if va, vb := reps[0].Host.GoVersion, reps[1].Host.GoVersion; va != vb {
		fmt.Fprintf(stdout, "note: A was built with %s, B with %s\n", va, vb)
	}
	counts := map[string]int{}
	fmt.Fprintf(stdout, "%-22s %-28s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")
	for _, r := range rows {
		counts[r.Verdict]++
		fmt.Fprintf(stdout, "%-22s %-28s %14s %14s %+8.2f%% %6.1f%%  %s", r.Workload, r.Metric, num(r.A), num(r.B), 100*r.Change, 100*r.Bound, r.Verdict)
		if r.Note != "" {
			fmt.Fprintf(stdout, " (%s)", r.Note)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "%d worse, %d better, %d unchanged, %d unresolved\n",
		counts[verdictWorse], counts[verdictBetter], counts[verdictUnchanged], counts[verdictUnresolved])
	if counts[verdictWorse] > 0 {
		return 1
	}
	return 0
}

// compareReports judges b against a: one row per (workload, end-to-end
// metric) under the metric's own bound, plus one per exact count and
// per trajectory hash, which must be identical. A workload or metric
// only one side has gets a row too: worse when B lost it, unresolved
// when B added it. It refuses reports that cannot be compared at all:
// different sizes, seeds or processor counts, or a section that was
// never measured.
func compareReports(a, b report) ([]row, error) {
	if a.Toy != b.Toy {
		return nil, fmt.Errorf("reports ran different sizes (toy=%v vs toy=%v)", a.Toy, b.Toy)
	}
	if ha, hb := a.Host, b.Host; ha.GOMAXPROCS != hb.GOMAXPROCS || ha.NumCPU != hb.NumCPU {
		return nil, fmt.Errorf("reports come from different hosts (A gomaxprocs=%d num_cpu=%d, B gomaxprocs=%d num_cpu=%d): their times cannot be held against each other",
			ha.GOMAXPROCS, ha.NumCPU, hb.GOMAXPROCS, hb.NumCPU)
	}
	for i, r := range []report{a, b} {
		if err := r.measuredAtAll(); err != nil {
			return nil, fmt.Errorf("report %c: %w", 'A'+i, err)
		}
	}
	inB := map[string]workloadReport{}
	for _, wr := range b.Workloads {
		inB[wr.Name] = wr
	}
	var rows []row
	for _, wa := range a.Workloads {
		wb, ok := inB[wa.Name]
		if !ok {
			rows = append(rows, row{Workload: wa.Name, Metric: "-", Verdict: verdictWorse, Note: "workload missing from B"})
			continue
		}
		delete(inB, wa.Name)
		if wa.Seed != wb.Seed {
			return nil, fmt.Errorf("%s ran seed %d in A and %d in B", wa.Name, wa.Seed, wb.Seed)
		}
		w, err := findWorkload(wa.Name)
		if err != nil {
			return nil, err
		}
		for _, d := range e2eDefs {
			sa, okA := wa.EndToEnd[d.name]
			sb, okB := wb.EndToEnd[d.name]
			switch {
			case okA && okB:
				rows = append(rows, judge(wa.Name, d, d.bound(w), sa, sb))
			case okA:
				rows = append(rows, row{Workload: wa.Name, Metric: d.name, A: sa.Median, Verdict: verdictWorse, Note: "metric missing from B"})
			case okB:
				rows = append(rows, row{Workload: wa.Name, Metric: d.name, B: sb.Median, Verdict: verdictUnresolved, Note: "metric missing from A"})
			}
		}
		fa, fb := wa.EndToEnd[failedFrac].Median, wb.EndToEnd[failedFrac].Median
		fr := row{Workload: wa.Name, Metric: failedFrac, A: fa, B: fb, Verdict: verdictUnchanged}
		if fb > fa {
			fr.Verdict, fr.Note = verdictWorse, "more operations failed"
		} else if fb < fa {
			fr.Verdict = verdictBetter
		}
		rows = append(rows, fr)
		if wa.Hash != "" {
			hr := row{Workload: wa.Name, Metric: "trajectory_hash", Verdict: verdictUnchanged}
			if wa.Hash != wb.Hash {
				hr.Verdict, hr.Note = verdictWorse, fmt.Sprintf("drifted: %.12s -> %.12s", wa.Hash, wb.Hash)
			}
			rows = append(rows, hr)
		}
		for _, d := range layerDefs {
			va, ok := wa.PerLayer[d.name]
			if !ok || !exactCounts[d.name] {
				continue
			}
			vb := wb.PerLayer[d.name]
			er := row{Workload: wa.Name, Metric: d.name, A: va.Value, B: vb.Value, Verdict: verdictUnchanged}
			if va.Value != vb.Value {
				er.Verdict, er.Note = verdictWorse, "exact count differs"
			}
			rows = append(rows, er)
		}
	}
	for _, wb := range b.Workloads {
		if _, only := inB[wb.Name]; only {
			rows = append(rows, row{Workload: wb.Name, Metric: "-", Verdict: verdictUnresolved, Note: "workload missing from A"})
		}
	}
	return rows, nil
}

// measuredAtAll rejects a report with a zero-filled section: a workload
// whose timed metrics are all zero, or one without repetitions.
func (r report) measuredAtAll() error {
	if len(r.Workloads) == 0 {
		return fmt.Errorf("no workloads")
	}
	for _, wr := range r.Workloads {
		for _, d := range e2eDefs {
			if s, ok := wr.EndToEnd[d.name]; ok && (s.N == 0 || s.Median == 0) {
				return fmt.Errorf("%s %s is zero-filled (n=%d, median=%v): the section was not measured", wr.Name, d.name, s.N, s.Median)
			}
		}
		if _, ok := wr.EndToEnd["setup_s"]; !ok {
			return fmt.Errorf("%s has no end-to-end section", wr.Name)
		}
	}
	return nil
}

// judge applies one metric's bound: B may be worse than A by the bound's
// share of A's median, or by the metric's absolute floor if that is
// more. A side whose own quartile spread exceeds that tolerance cannot
// resolve a change of that size: the row is unresolved unless every run
// of one side beats every run of the other.
func judge(workload string, d e2eDef, bound float64, a, b summary) row {
	r := row{Workload: workload, Metric: d.name, A: a.Median, B: b.Median, Bound: bound}
	diff := b.Median - a.Median
	if d.better == "higher" {
		diff = -diff
	}
	r.Change = diff / math.Abs(a.Median)
	tol := math.Max(bound*math.Abs(a.Median), d.floor)
	switch {
	case (a.Q3-a.Q1 > tol || b.Q3-b.Q1 > tol) && overlap(a, b):
		r.Verdict, r.Note = verdictUnresolved, fmt.Sprintf("spread A %.1f%% B %.1f%%", 100*a.spread(), 100*b.spread())
	case diff > tol:
		r.Verdict = verdictWorse
	case diff < -tol:
		r.Verdict = verdictBetter
	default:
		r.Verdict = verdictUnchanged
	}
	return r
}

// overlap reports whether the two sides' value ranges intersect.
func overlap(a, b summary) bool {
	minA, maxA := extent(a.Values)
	minB, maxB := extent(b.Values)
	return minA <= maxB && minB <= maxA
}

func extent(vs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range vs {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return
}
