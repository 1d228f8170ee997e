// Package metrics provides the statistical accumulators every experiment
// reports: streaming mean/variance (Welford), fixed-bucket histograms
// with quantile estimates, per-cell tallies, and the Jain fairness index
// used for the paper's fairness claims; and Dump, a report's values as
// exact integers, which hash gates check by name.
package metrics

import (
	"encoding/csv"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Welford accumulates a stream's count, mean and variance in O(1) memory.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Observe adds x to the stream.
func (w *Welford) Observe(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() uint64 { return w.n }

// Mean returns the sample mean (0 for an empty stream).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 with fewer than 2 samples).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Min returns the smallest observation (0 for an empty stream).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation (0 for an empty stream).
func (w *Welford) Max() float64 { return w.max }

// Merge folds o into w (parallel replication aggregation).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	w.n = n
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
}

// String renders "mean ± std (n=..)".
func (w *Welford) String() string {
	return fmt.Sprintf("%.3f ± %.3f (n=%d)", w.Mean(), w.Std(), w.n)
}

// Histogram counts observations in uniform buckets over [0, width*n)
// with an overflow bucket, supporting quantile estimation. The zero
// value is unusable; use NewHistogram.
type Histogram struct {
	width   float64
	buckets []uint64
	over    uint64
	total   uint64
}

// NewHistogram creates a histogram with n buckets of the given width.
func NewHistogram(width float64, n int) *Histogram {
	if width <= 0 || n <= 0 {
		panic(fmt.Sprintf("metrics: bad histogram shape width=%v n=%d", width, n))
	}
	return &Histogram{width: width, buckets: make([]uint64, n)}
}

// Observe adds x. Negative values clamp to bucket 0; NaN, +Inf and
// anything at or beyond the bucketed range land in the overflow bucket.
// The range test happens in the float domain: converting an
// out-of-range float64 to int is undefined in Go (on amd64 it yields
// the minimum int64), so `int(x/width)` on a huge sample used to index
// buckets with a negative subscript and panic.
func (h *Histogram) Observe(x float64) {
	h.total++
	if math.IsNaN(x) {
		h.over++
		return
	}
	if x < 0 {
		x = 0
	}
	f := x / h.width
	if f >= float64(len(h.buckets)) {
		h.over++
		return
	}
	h.buckets[int(f)]++
}

// N returns the number of observations.
func (h *Histogram) N() uint64 { return h.total }

// Below returns the number of observations in the first k buckets: those
// below k times the bucket width.
func (h *Histogram) Below(k int) uint64 {
	var n uint64
	for _, c := range h.buckets[:k] {
		n += c
	}
	return n
}

// Quantile estimates the q-quantile (0 <= q <= 1) as the upper edge of
// the bucket containing it; observations in the overflow bucket report
// +Inf's stand-in: width*len(buckets).
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			return float64(i+1) * h.width
		}
	}
	return h.width * float64(len(h.buckets))
}

// Merge folds o into h; shapes must match.
func (h *Histogram) Merge(o *Histogram) {
	if h.width != o.width || len(h.buckets) != len(o.buckets) {
		panic("metrics: merging histograms of different shapes")
	}
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
	h.over += o.over
	h.total += o.total
}

// JainIndex computes Jain's fairness index of xs:
// (Σx)² / (n · Σx²), which is 1 for perfectly equal shares and 1/n when
// one member takes everything. An empty or all-zero input returns 1
// (vacuously fair).
func JainIndex(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// Series is a labelled column of numbers: a column of a report table,
// or one curve of a plot chart.
type Series struct {
	Label  string
	Values []float64
}

// Table renders aligned columns: one row per index, one column per
// series, with the given row labels. Used by the figure benches to print
// paper-style tables.
func Table(rowHeader string, rows []string, cols []Series) string {
	var b strings.Builder
	widths := make([]int, len(cols)+1)
	widths[0] = len(rowHeader)
	for _, r := range rows {
		if len(r) > widths[0] {
			widths[0] = len(r)
		}
	}
	cells := make([][]string, len(cols))
	for c, s := range cols {
		cells[c] = make([]string, len(rows))
		widths[c+1] = len(s.Label)
		for r := range rows {
			v := "-"
			if r < len(s.Values) {
				v = formatCell(s.Values[r])
			}
			cells[c][r] = v
			if len(v) > widths[c+1] {
				widths[c+1] = len(v)
			}
		}
	}
	pad := func(s string, w int) string {
		return s + strings.Repeat(" ", w-len(s))
	}
	b.WriteString(pad(rowHeader, widths[0]))
	for c, s := range cols {
		b.WriteString("  ")
		b.WriteString(pad(s.Label, widths[c+1]))
	}
	b.WriteByte('\n')
	for r, label := range rows {
		b.WriteString(pad(label, widths[0]))
		for c := range cols {
			b.WriteString("  ")
			b.WriteString(pad(cells[c][r], widths[c+1]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func formatCell(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "inf"
	case math.IsNaN(v):
		return "-"
	case v != 0 && math.Abs(v) < 0.01:
		return fmt.Sprintf("%.2e", v)
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// CSV renders the same data as Table in RFC-4180 CSV form, for
// downstream plotting tools. Missing and NaN values render as empty
// cells; infinities as "inf"/"-inf".
func CSV(rowHeader string, rows []string, cols []Series) string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	header := make([]string, 1+len(cols))
	header[0] = rowHeader
	for i, c := range cols {
		header[i+1] = c.Label
	}
	w.Write(header)
	rec := make([]string, len(header))
	for r, label := range rows {
		rec[0] = label
		for c, s := range cols {
			rec[c+1] = csvCell(s.Values, r)
		}
		w.Write(rec)
	}
	w.Flush()
	return b.String()
}

func csvCell(vals []float64, i int) string {
	if i >= len(vals) {
		return ""
	}
	v := vals[i]
	switch {
	case math.IsNaN(v):
		return ""
	case math.IsInf(v, 1):
		return "inf"
	case math.IsInf(v, -1):
		return "-inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}
