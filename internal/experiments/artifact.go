package experiments

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/metrics"
	"repro/internal/plot"
)

// Curve is a figure: ordered series over one x axis, drawn as an ASCII
// chart by Render and as an SVG document by SVG.
type Curve struct {
	// Name is the SVG's file name without extension ("f4-hotspot");
	// empty for a figure that is only charted.
	Name string
	// Title heads the chart, and SVGTitle, when set, the SVG instead.
	Title, SVGTitle string
	XLabel, YLabel  string
	X               []float64
	Series          []metrics.Series
	// Height is the chart's plot height in rows.
	Height int
}

// Render draws the curve as a 61-column ASCII chart.
func (c Curve) Render() string {
	return plot.Chart(c.Title, c.XLabel, c.YLabel, c.X, c.Series, 61, c.Height)
}

// SVG draws the curve as an SVG document.
func (c Curve) SVG() string {
	return plot.SVG(cmp.Or(c.SVGTitle, c.Title), c.XLabel, c.YLabel, c.X, c.Series)
}

// Values returns the values of the series labelled label, or nil.
func (c Curve) Values(label string) []float64 {
	for _, s := range c.Series {
		if s.Label == label {
			return s.Values
		}
	}
	return nil
}

// Table is a tabular artifact: a title, one labelled row per entry, one
// labelled column per metric, and notes under it.
type Table struct {
	Title     string
	RowHeader string
	Rows      []string
	Cols      []metrics.Series
	Notes     []string
}

// Render formats the table with its title and notes.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	b.WriteString(metrics.Table(t.RowHeader, t.Rows, t.Cols))
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Value returns the entry in the row labelled row and the first column
// labelled col, or NaN when there is none.
func (t Table) Value(row, col string) float64 {
	r := slices.Index(t.Rows, row)
	for _, c := range t.Cols {
		if c.Label == col && r >= 0 && r < len(c.Values) {
			return c.Values[r]
		}
	}
	return math.NaN()
}

// points reads one value from each result.
func points(rs []result, read func(result) float64) []float64 {
	vs := make([]float64, len(rs))
	for i, r := range rs {
		vs[i] = read(r)
	}
	return vs
}

// series splits results laid out by across into one series per label,
// reading each point with read.
func series(labels []string, rs []result, read func(result) float64) []metrics.Series {
	n := len(rs) / len(labels)
	out := make([]metrics.Series, len(labels))
	for i, l := range labels {
		out[i] = metrics.Series{Label: l, Values: points(rs[i*n:(i+1)*n], read)}
	}
	return out
}

// The values most artifacts read, each averaged over a spec's seeds.
func blocking(r result) float64    { return r.Blocking }
func acqTime(r result) float64     { return r.AcqTime }
func msgsPerCall(r result) float64 { return r.MsgsPerCall }
func attempts(r result) float64    { return r.M }

// sortedOr returns the names sorted, or def sorted when names is empty:
// a figure lists its series in name order.
func sortedOr(names, def []string) []string {
	if len(names) == 0 {
		names = def
	}
	names = slices.Clone(names)
	slices.Sort(names)
	return names
}
