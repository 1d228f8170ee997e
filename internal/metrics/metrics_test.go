package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Observe(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if !almost(w.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", w.Mean())
	}
	// Population variance is 4; sample variance is 32/7.
	if !almost(w.Var(), 32.0/7, 1e-12) {
		t.Errorf("Var = %v, want %v", w.Var(), 32.0/7)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.Std() != 0 {
		t.Fatal("empty stream should report zeros")
	}
	w.Observe(3)
	if w.Var() != 0 {
		t.Fatal("single sample has zero variance")
	}
	if w.Mean() != 3 || w.Min() != 3 || w.Max() != 3 {
		t.Fatal("single sample stats wrong")
	}
}

func TestWelfordMergeMatchesSequential(t *testing.T) {
	f := func(xs, ys []float64) bool {
		clean := func(vs []float64) []float64 {
			out := vs[:0]
			for _, v := range vs {
				if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e6 {
					out = append(out, v)
				}
			}
			return out
		}
		xs, ys = clean(xs), clean(ys)
		var a, b, all Welford
		for _, x := range xs {
			a.Observe(x)
			all.Observe(x)
		}
		for _, y := range ys {
			b.Observe(y)
			all.Observe(y)
		}
		a.Merge(b)
		if a.N() != all.N() {
			return false
		}
		if a.N() == 0 {
			return true
		}
		scale := 1e-6 * (1 + math.Abs(all.Mean()))
		return almost(a.Mean(), all.Mean(), scale) &&
			almost(a.Var(), all.Var(), 1e-4*(1+all.Var())) &&
			a.Min() == all.Min() && a.Max() == all.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordMergeEmptySides(t *testing.T) {
	var a, b Welford
	b.Observe(5)
	a.Merge(b) // empty <- nonempty
	if a.N() != 1 || a.Mean() != 5 {
		t.Fatal("merge into empty failed")
	}
	var c Welford
	a.Merge(c) // nonempty <- empty
	if a.N() != 1 {
		t.Fatal("merge of empty changed state")
	}
}

func TestWelfordString(t *testing.T) {
	var w Welford
	w.Observe(1)
	if !strings.Contains(w.String(), "n=1") {
		t.Errorf("String = %q", w.String())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(1, 100)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) - 0.5) // one observation per bucket
	}
	if h.N() != 100 {
		t.Fatalf("N = %d", h.N())
	}
	if q := h.Quantile(0.5); !almost(q, 50, 1) {
		t.Errorf("p50 = %v", q)
	}
	if q := h.Quantile(0.95); !almost(q, 95, 1) {
		t.Errorf("p95 = %v", q)
	}
	if q := h.Quantile(1.0); !almost(q, 100, 1) {
		t.Errorf("p100 = %v", q)
	}
	if q := h.Quantile(0); !almost(q, 1, 1) {
		t.Errorf("p0 = %v", q)
	}
}

func TestHistogramOverflowAndClamp(t *testing.T) {
	h := NewHistogram(1, 10)
	h.Observe(-5) // clamps to bucket 0
	h.Observe(100)
	h.Observe(5)
	if h.N() != 3 {
		t.Fatalf("N = %d", h.N())
	}
	// The overflow observation makes the top quantile the histogram cap.
	if q := h.Quantile(1); q != 10 {
		t.Errorf("overflow quantile = %v, want cap 10", q)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(1, 10)
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(2, 5)
	b := NewHistogram(2, 5)
	a.Observe(1)
	b.Observe(3)
	b.Observe(100)
	a.Merge(b)
	if a.N() != 3 {
		t.Fatalf("merged N = %d", a.N())
	}
}

func TestHistogramMergeShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogram(1, 5).Merge(NewHistogram(2, 5))
}

func TestHistogramBadShapePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewHistogram(0, 5) },
		func() { NewHistogram(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestJainIndex(t *testing.T) {
	if j := JainIndex([]float64{1, 1, 1, 1}); !almost(j, 1, 1e-12) {
		t.Errorf("equal shares: %v", j)
	}
	if j := JainIndex([]float64{1, 0, 0, 0}); !almost(j, 0.25, 1e-12) {
		t.Errorf("one-taker: %v", j)
	}
	if j := JainIndex(nil); j != 1 {
		t.Errorf("empty: %v", j)
	}
	if j := JainIndex([]float64{0, 0}); j != 1 {
		t.Errorf("all zero: %v", j)
	}
}

func TestJainIndexBounds(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
				clean = append(clean, math.Abs(x))
			}
		}
		if len(clean) == 0 {
			return true
		}
		j := JainIndex(clean)
		return j >= 1/float64(len(clean))-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableAlignment(t *testing.T) {
	out := Table("load", []string{"0.1", "0.5"}, []Series{
		{Label: "adaptive", Values: []float64{0.001, 0.123}},
		{Label: "fixed", Values: []float64{0.2}},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "load") || !strings.Contains(lines[0], "adaptive") {
		t.Errorf("header: %q", lines[0])
	}
	if len(lines[1]) != len(lines[2]) {
		t.Errorf("rows not aligned:\n%s", out)
	}
	if !strings.Contains(lines[2], "-") {
		t.Errorf("missing value should render as '-': %q", lines[2])
	}
}

func TestFormatCellShapes(t *testing.T) {
	cases := map[float64]string{
		math.Inf(1): "inf",
		0.000001:    "1.00e-06",
		12345:       "12345",
		0:           "0.000",
	}
	for v, want := range cases {
		if got := formatCell(v); got != want {
			t.Errorf("formatCell(%v) = %q, want %q", v, got, want)
		}
	}
	if got := formatCell(math.NaN()); got != "-" {
		t.Errorf("NaN = %q", got)
	}
}

func TestCSV(t *testing.T) {
	out := CSV("load", []string{"0.1", "0.5"}, []Series{
		{Label: "a,dap", Values: []float64{0.25, math.NaN()}},
		{Label: "fixed", Values: []float64{math.Inf(1)}},
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines:\n%s", out)
	}
	if lines[0] != `load,"a,dap",fixed` {
		t.Errorf("header = %q (comma label must be quoted)", lines[0])
	}
	if lines[1] != "0.1,0.25,inf" {
		t.Errorf("row 1 = %q", lines[1])
	}
	if lines[2] != "0.5,," {
		t.Errorf("row 2 = %q (NaN and missing must be empty)", lines[2])
	}
}

func TestCSVNegInf(t *testing.T) {
	out := CSV("x", []string{"r"}, []Series{{Label: "v", Values: []float64{math.Inf(-1)}}})
	if !strings.Contains(out, "-inf") {
		t.Errorf("out = %q", out)
	}
}

func TestHistogramObserveExtremeValues(t *testing.T) {
	// Regression: int(x/width) on +Inf or math.MaxFloat64 is an
	// out-of-range float→int conversion (minimum int64 on amd64), which
	// indexed buckets with a negative subscript and panicked.
	h := NewHistogram(1, 10)
	for _, x := range []float64{math.Inf(1), math.MaxFloat64, math.NaN(), 1e300, 10, -math.MaxFloat64} {
		h.Observe(x) // must not panic
	}
	if h.N() != 6 {
		t.Fatalf("N = %d, want 6", h.N())
	}
	if h.over != 5 { // everything except the clamped -MaxFloat64
		t.Fatalf("overflow = %d, want 5", h.over)
	}
	if h.buckets[0] != 1 {
		t.Fatalf("bucket 0 = %d, want 1 (negative clamps to 0)", h.buckets[0])
	}
	if q := h.Quantile(0.99); q != 10 {
		t.Fatalf("q99 = %v, want the overflow stand-in 10", q)
	}
}
