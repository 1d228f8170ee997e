// Package plot renders the experiment figures as ASCII line charts and
// aligned data tables, so `go test -bench` output and cmd/chantab
// reproduce the paper's figures in a terminal.
package plot

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/metrics"
)

// markers are assigned to series in order.
var markers = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// Chart renders the series against xs as an ASCII chart of the given
// inner width and height, with Y autoscaled, a legend, and the X range
// printed underneath. NaN values are skipped.
func Chart(title, xlabel, ylabel string, xs []float64, series []metrics.Series, width, height int) string {
	if width < 8 {
		width = 8
	}
	if height < 4 {
		height = 4
	}
	lo, hi := bounds(series)
	if math.IsInf(lo, 1) { // no data at all
		lo, hi = 0, 1
	}
	if lo > 0 && lo < hi/4 {
		lo = 0 // include the origin when it is close anyway
	}
	if hi == lo {
		hi = lo + 1
	}
	xlo, xhi := xs[0], xs[len(xs)-1]
	if xhi == xlo {
		xhi = xlo + 1
	}
	canvas := make([][]byte, height)
	for r := range canvas {
		canvas[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		mark := markers[si%len(markers)]
		for i, v := range s.Values {
			if i >= len(xs) || math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			col := int(math.Round((xs[i] - xlo) / (xhi - xlo) * float64(width-1)))
			row := height - 1 - int(math.Round((v-lo)/(hi-lo)*float64(height-1)))
			if col >= 0 && col < width && row >= 0 && row < height {
				canvas[row][col] = mark
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for r, line := range canvas {
		yval := hi - (hi-lo)*float64(r)/float64(height-1)
		fmt.Fprintf(&b, "%10s |%s|\n", fmtTick(yval), string(line))
	}
	fmt.Fprintf(&b, "%10s  %s\n", "", strings.Repeat("-", width))
	fmt.Fprintf(&b, "%10s  %-*s%s\n", "", width-len(fmtTick(xhi)), fmtTick(xlo), fmtTick(xhi))
	fmt.Fprintf(&b, "%10s  x: %s, y: %s\n", "", xlabel, ylabel)
	for si, s := range series {
		fmt.Fprintf(&b, "%10s  %c %s\n", "", markers[si%len(markers)], s.Label)
	}
	return b.String()
}

func bounds(series []metrics.Series) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for _, v := range s.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	return lo, hi
}

func fmtTick(v float64) string {
	av := math.Abs(v)
	switch {
	case v == 0:
		return "0"
	case av >= 1000:
		return fmt.Sprintf("%.0f", v)
	case av >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}
