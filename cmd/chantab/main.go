// Command chantab regenerates every table and figure of the paper's
// evaluation (the same artifacts the `go test -bench` harness prints)
// and writes them to stdout or a file. Use -quick for a fast smoke pass.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// artifact is one table or figure: its -only name and how to render it.
type artifact struct {
	name   string
	render func() (string, error)
}

// figure is an experiment result that can also be drawn.
type figure interface {
	Render() string
	SVG() string
}

// rendered renders an experiment's result, or passes its error on.
func rendered(r interface{ Render() string }, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// run is main without the process: it parses args, renders the selected
// artifacts to stdout (or -out) with progress and diagnostics on stderr,
// and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chantab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		quick   = fs.Bool("quick", false, "small runs (smoke test); full runs otherwise")
		out     = fs.String("out", "", "write the report to this file instead of stdout")
		only    = fs.String("only", "", "run a single artifact: table1,table2,table3,f1,f4,f5,f5d,f6,f8,f9,f10,f11,f12,a1,policies")
		csv     = fs.String("csv", "", "also write the load-sweep data as CSV to this file")
		svg     = fs.String("svgdir", "", "also write figure SVGs into this directory")
		workers = fs.Int("workers", 0, "sweep worker-pool width (0 = ADCA_WORKERS env var, else NumCPU)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// writeSVG and writeCSV write a side file when its flag asks for one.
	writeSVG := func(name, content string) error {
		if *svg == "" {
			return nil
		}
		return os.WriteFile(filepath.Join(*svg, name+".svg"), []byte(content), 0o644)
	}
	writeCSV := func(content string) error {
		if *csv == "" {
			return nil
		}
		return os.WriteFile(*csv, []byte(content), 0o644)
	}
	// withSVG is rendered for a figure, whose SVG goes to -svgdir as name.
	withSVG := func(name string) func(figure, error) (string, error) {
		return func(r figure, err error) (string, error) {
			if err != nil {
				return "", err
			}
			return r.Render(), writeSVG(name, r.SVG())
		}
	}

	env := experiments.DefaultEnv()
	env.Workers = *workers
	if *quick {
		env.Duration = 40_000
		env.Warmup = 8_000
		env.Seeds = []uint64{7}
	}

	artifacts := []artifact{
		{"table1", func() (string, error) { return rendered(experiments.Table1(env)) }},
		{"table2", func() (string, error) { return rendered(experiments.Table2(env)) }},
		{"table3", func() (string, error) { return rendered(experiments.Table3(env, nil)) }},
		{"f1", func() (string, error) {
			r, err := experiments.LoadSweep(env, nil, nil)
			if err != nil {
				return "", err
			}
			if err := writeCSV(r.RenderCSV()); err != nil {
				return "", err
			}
			for name, content := range r.SVGs() {
				if err := writeSVG(name, content); err != nil {
					return "", err
				}
			}
			return r.RenderBlocking() + "\n" + r.RenderDelay() + "\n" +
				r.RenderMessages() + "\n" + r.RenderModeOccupancy() + "\n" + r.RenderTable(), nil
		}},
		{"f4", func() (string, error) { return withSVG("f4-hotspot")(experiments.Hotspot(env, nil, nil)) }},
		{"f5", func() (string, error) {
			a, err := experiments.AblationAlpha(env, nil)
			if err != nil {
				return "", err
			}
			th, err := experiments.AblationTheta(env, nil)
			if err != nil {
				return "", err
			}
			wd, err := experiments.AblationWindow(env, nil)
			if err != nil {
				return "", err
			}
			return a.Render() + "\n" + th.Render() + "\n" + wd.Render(), nil
		}},
		{"f6", func() (string, error) {
			e := env
			e.Seeds = env.Seeds[:1]
			return rendered(experiments.Scalability(e, nil, nil))
		}},
		{"f8", func() (string, error) { return rendered(experiments.Fairness(env, nil, nil)) }},
		{"f5d", func() (string, error) { return rendered(experiments.AblationLender(env)) }},
		{"f9", func() (string, error) { return withSVG("f9-mobility")(experiments.Mobility(env, nil, nil)) }},
		{"f10", func() (string, error) { return rendered(experiments.Transient(env, nil)) }},
		{"f11", func() (string, error) { return withSVG("f11-latency")(experiments.Latency(env, nil, nil)) }},
		{"f12", func() (string, error) { return withSVG("f12-repacking")(experiments.Repacking(env, nil)) }},
		{"a1", func() (string, error) { return rendered(experiments.Breakdown(env, nil)) }},
		{"policies", func() (string, error) {
			r, err := experiments.PolicySweep(env, nil, nil, nil)
			if err != nil {
				return "", err
			}
			// -csv belongs to f1 in a full run; claim it only when this
			// artifact was selected explicitly.
			if *only == "policies" {
				err = writeCSV(r.RenderCSV())
			}
			return r.Render(), err
		}},
	}
	if *only != "" {
		var names []string
		selected := artifacts[:0:0]
		for _, a := range artifacts {
			names = append(names, a.name)
			if a.name == *only {
				selected = append(selected, a)
			}
		}
		if len(selected) == 0 {
			fmt.Fprintf(stderr, "chantab: -only %q names no artifact; have %s\n", *only, strings.Join(names, ", "))
			return 2
		}
		artifacts = selected
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		w = f
	}
	for _, a := range artifacts {
		fmt.Fprintf(stderr, "running %s...\n", a.name)
		art, err := a.render()
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", a.name, err)
			return 1
		}
		fmt.Fprintf(w, "%s\n", art)
	}
	return 0
}
