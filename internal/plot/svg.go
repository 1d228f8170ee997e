package plot

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/metrics"
)

// SVG renders the series against xs as a standalone SVG line chart —
// same data contract as Chart, publication-friendly output. Pure
// stdlib string building; no external renderer needed.
func SVG(title, xlabel, ylabel string, xs []float64, series []metrics.Series) string {
	const (
		width   = 640.0
		height  = 400.0
		left    = 70.0
		right   = 20.0
		top     = 40.0
		bottom  = 70.0
		legendY = 18.0
	)
	plotW := width - left - right
	plotH := height - top - bottom

	lo, hi := bounds(series)
	if math.IsInf(lo, 1) {
		lo, hi = 0, 1
	}
	if lo > 0 && lo < hi/4 {
		lo = 0
	}
	if hi == lo {
		hi = lo + 1
	}
	xlo, xhi := xs[0], xs[len(xs)-1]
	if xhi == xlo {
		xhi = xlo + 1
	}
	sx := func(x float64) float64 { return left + (x-xlo)/(xhi-xlo)*plotW }
	sy := func(y float64) float64 { return top + plotH - (y-lo)/(hi-lo)*plotH }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		width, height, width, height)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	fmt.Fprintf(&b, `<text x="%.0f" y="22" font-family="sans-serif" font-size="14" text-anchor="middle">%s</text>`+"\n",
		width/2, escape(title))

	// Axes.
	fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black"/>`+"\n",
		left, top, left, top+plotH)
	fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black"/>`+"\n",
		left, top+plotH, left+plotW, top+plotH)

	// Ticks: 5 on each axis with grid lines.
	for i := 0; i <= 4; i++ {
		f := float64(i) / 4
		yv := lo + f*(hi-lo)
		y := sy(yv)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#ddd"/>`+"\n",
			left, y, left+plotW, y)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="10" text-anchor="end">%s</text>`+"\n",
			left-6, y+3, fmtTick(yv))
		xv := xlo + f*(xhi-xlo)
		x := sx(xv)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="10" text-anchor="middle">%s</text>`+"\n",
			x, top+plotH+14, fmtTick(xv))
	}
	fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="middle">%s</text>`+"\n",
		left+plotW/2, top+plotH+32, escape(xlabel))
	fmt.Fprintf(&b, `<text x="16" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="middle" transform="rotate(-90 16 %.1f)">%s</text>`+"\n",
		top+plotH/2, top+plotH/2, escape(ylabel))

	colors := []string{"#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f"}
	for si, s := range series {
		color := colors[si%len(colors)]
		var pts []string
		for i, v := range s.Values {
			if i >= len(xs) || math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", sx(xs[i]), sy(v)))
		}
		if len(pts) > 1 {
			fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>`+"\n",
				strings.Join(pts, " "), color)
		}
		for _, p := range pts {
			var px, py float64
			fmt.Sscanf(p, "%f,%f", &px, &py)
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="2.5" fill="%s"/>`+"\n", px, py, color)
		}
		// Legend entry.
		lx := left + 8 + float64(si%3)*190
		ly := height - legendY - float64(si/3)*14
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="2"/>`+"\n",
			lx, ly-4, lx+18, ly-4, color)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="10">%s</text>`+"\n",
			lx+22, ly, escape(s.Label))
	}
	b.WriteString("</svg>\n")
	return b.String()
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
