package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// goldenJSON pins each DES workload's trajectory hash at its default
// seed; a repetition at that seed that hashes differently has failed.
//
//go:embed golden.json
var goldenJSON []byte

// golden maps "<workload>" (full size) and "<workload>/toy" to hashes.
func golden() (map[string]string, error) {
	g := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func goldenKey(w workload, toy bool) string {
	if toy {
		return w.name + "/toy"
	}
	return w.name
}

// childRun is one finished child process.
type childRun struct {
	repResult
	PeakRSSMB float64
}

// spawn runs one repetition of w in a fresh child process — a fresh
// heap and no cross-workload carry-over — and reads its peak resident
// set from the kernel's rusage, so nothing samples memory inside the
// timed region. It is also where the sharded workloads are refused on a
// one-processor host: nothing reaches a child any other way.
func spawn(w workload, seed uint64, o repOpts) (childRun, error) {
	if w.kind == kindSharded {
		if err := needTwoProcs(w.name); err != nil {
			return childRun{}, err
		}
	}
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatUint(seed, 10), "-out", o.outDir}
	if o.toy {
		args = append(args, "-toy")
	}
	if o.traced {
		args = append(args, "-traced")
	}
	if o.workers > 0 {
		args = append(args, "-workers", strconv.Itoa(o.workers))
	}
	if o.scheme != "" {
		args = append(args, "-scheme", o.scheme)
	}
	if o.noCheck {
		args = append(args, "-nocheck")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return childRun{}, fmt.Errorf("%s child: %w: %s", w.name, err, bytes.TrimSpace(errOut.Bytes()))
	}
	// The result is the last line; netrun prints link diagnostics to
	// standard output when a peer goes away during shutdown.
	last := bytes.TrimSpace(out.Bytes())
	if i := bytes.LastIndexByte(last, '\n'); i >= 0 {
		last = last[i+1:]
	}
	var run childRun
	if err := json.Unmarshal(last, &run.repResult); err != nil {
		return childRun{}, fmt.Errorf("%s child printed no result: %w", w.name, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KB
	}
	return run, nil
}

// childEnv marks a child process, so the test binary — which cannot be
// told apart by its flags — knows to act as one.
const childEnv = "ADCA_BENCHMARK_CHILD"

// measured is the set of repetitions of one workload at one seed.
type measured struct {
	w    workload
	seed uint64
	toy  bool
	runs []childRun
	// attempted/failed/firstError fold the operations of every
	// repetition, including hash mismatches found here.
	attempted, failed uint64
	firstError        string
}

// measure runs repetitions of w until stop says enough (it is asked
// after each one) and checks them: every DES repetition must produce
// the same trajectory hash, and at the pinned seed that hash must be
// the golden one.
func measure(w workload, seed uint64, o repOpts, stop func(done int, elapsed time.Duration) bool) (*measured, error) {
	m := &measured{w: w, seed: seed, toy: o.toy}
	begin := time.Now()
	for {
		run, err := spawn(w, seed, o)
		if err != nil {
			return nil, err
		}
		m.add(run)
		if stop(len(m.runs), time.Since(begin)) {
			break
		}
	}
	if err := m.checkGolden(); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *measured) add(run childRun) {
	m.attempted += run.Attempted
	m.failed += run.Failed
	m.fail(0, run.Error)
	if len(m.runs) > 0 && run.Failed == 0 && run.Hash != m.runs[0].Hash {
		m.fail(1, fmt.Sprintf("trajectory hash %s differs from the first repetition's %s", run.Hash, m.runs[0].Hash))
	}
	m.runs = append(m.runs, run)
}

// fail records n failed operations (already counted when n is 0) and
// keeps the first description.
func (m *measured) fail(n uint64, why string) {
	m.failed += n
	if m.firstError == "" {
		m.firstError = why
	}
}

func (m *measured) checkGolden() error {
	if m.w.kind == kindTCP || m.seed != m.w.seed || m.failed > 0 {
		return nil
	}
	g, err := golden()
	if err != nil {
		return err
	}
	if want := g[goldenKey(m.w, m.toy)]; m.runs[0].Hash != want {
		m.fail(1, fmt.Sprintf("trajectory hash %s is not the golden %q for seed %d", m.runs[0].Hash, want, m.seed))
	}
	return nil
}

// hash is the workload's trajectory hash ("" for tcp-borrow).
func (m *measured) hash() string { return m.runs[0].Hash }

// values extracts one figure from every repetition.
func (m *measured) values(f func(childRun) float64) []float64 {
	out := make([]float64, len(m.runs))
	for i, r := range m.runs {
		out[i] = f(r)
	}
	return out
}

// oneRep stops after the first repetition.
func oneRep(int, time.Duration) bool { return true }

// forSeconds keeps repeating while another repetition of the average
// length seen so far would still end near the budget.
func forSeconds(s int) func(int, time.Duration) bool {
	budget := time.Duration(s) * time.Second
	return func(done int, elapsed time.Duration) bool {
		return elapsed+elapsed/time.Duration(2*done) >= budget
	}
}
