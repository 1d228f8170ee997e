package plot

import (
	"math"
	"strings"
	"testing"

	"repro/internal/metrics"
)

func TestChartContainsStructure(t *testing.T) {
	out := Chart("Drop rate vs load", "Erlang", "P(block)",
		[]float64{0.1, 0.5, 1.0},
		[]metrics.Series{
			{Label: "adaptive", Values: []float64{0.0, 0.01, 0.2}},
			{Label: "fixed", Values: []float64{0.01, 0.15, 0.4}},
		}, 40, 10)
	for _, frag := range []string{"Drop rate vs load", "adaptive", "fixed", "Erlang", "P(block)", "*", "o"} {
		if !strings.Contains(out, frag) {
			t.Errorf("chart missing %q:\n%s", frag, out)
		}
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 14 {
		t.Fatalf("chart too short: %d lines", len(lines))
	}
}

func TestChartMonotoneSeriesOrdering(t *testing.T) {
	// The max of an increasing series must be plotted on a higher row
	// (earlier line) than its min.
	out := Chart("t", "x", "y", []float64{0, 1},
		[]metrics.Series{{Label: "s", Values: []float64{0, 100}}}, 20, 8)
	lines := strings.Split(out, "\n")
	firstMark, lastMark := -1, -1
	for i, l := range lines {
		if strings.ContainsRune(l, '*') {
			if firstMark == -1 {
				firstMark = i
			}
			lastMark = i
		}
	}
	if firstMark == -1 || firstMark == lastMark {
		t.Fatalf("expected marks on two rows:\n%s", out)
	}
}

func TestChartHandlesDegenerateInput(t *testing.T) {
	// Constant series, NaN/Inf values, tiny dimensions: must not panic.
	out := Chart("t", "x", "y", []float64{1, 1},
		[]metrics.Series{{Label: "s", Values: []float64{5, 5}}}, 2, 2)
	if out == "" {
		t.Fatal("empty chart")
	}
	out = Chart("t", "x", "y", []float64{0, 1},
		[]metrics.Series{{Label: "s", Values: []float64{math.NaN(), math.Inf(1)}}}, 20, 5)
	if !strings.Contains(out, "s") {
		t.Fatal("legend missing")
	}
}

func TestChartAllSeriesGetDistinctMarkers(t *testing.T) {
	series := make([]metrics.Series, 4)
	for i := range series {
		series[i] = metrics.Series{Label: string(rune('a' + i)), Values: []float64{float64(i)}}
	}
	out := Chart("t", "x", "y", []float64{0}, series, 20, 6)
	for _, m := range []string{"*", "o", "+", "x"} {
		if !strings.Contains(out, m) {
			t.Errorf("marker %q missing", m)
		}
	}
}

func TestFmtTick(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1234:    "1234",
		3.14159: "3.14",
		0.0042:  "0.0042",
	}
	for v, want := range cases {
		if got := fmtTick(v); got != want {
			t.Errorf("fmtTick(%v) = %q, want %q", v, got, want)
		}
	}
}
