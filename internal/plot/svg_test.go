package plot

import (
	"encoding/xml"
	"math"
	"strings"
	"testing"

	"repro/internal/metrics"
)

func sampleSVG() string {
	return SVG("Blocking vs load", "Erlang", "P(block)",
		[]float64{0.1, 0.5, 1.0},
		[]metrics.Series{
			{Label: "adaptive", Values: []float64{0, 0.01, 0.2}},
			{Label: "fixed & friends", Values: []float64{0.01, 0.15, 0.4}},
		})
}

func TestSVGWellFormedXML(t *testing.T) {
	out := sampleSVG()
	dec := xml.NewDecoder(strings.NewReader(out))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("SVG is not well-formed XML: %v\n%s", err, out)
		}
	}
}

func TestSVGContainsStructure(t *testing.T) {
	out := sampleSVG()
	for _, frag := range []string{
		"<svg", "polyline", "circle", "Blocking vs load",
		"adaptive", "fixed &amp; friends", "Erlang", "P(block)",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("SVG missing %q", frag)
		}
	}
	if strings.Count(out, "<polyline") != 2 {
		t.Errorf("expected 2 polylines, got %d", strings.Count(out, "<polyline"))
	}
}

func TestSVGEscapesLabels(t *testing.T) {
	out := SVG(`a<b>"c"&d`, "x", "y", []float64{0, 1},
		[]metrics.Series{{Label: "s", Values: []float64{1, 2}}})
	if strings.Contains(out, `a<b>`) {
		t.Fatal("title not escaped")
	}
	if !strings.Contains(out, "a&lt;b&gt;") {
		t.Fatal("escaped title missing")
	}
}

func TestSVGDegenerateData(t *testing.T) {
	// Constant series, NaN, infinities, single point — must not panic
	// and must stay well-formed.
	out := SVG("t", "x", "y", []float64{1, 1},
		[]metrics.Series{{Label: "s", Values: []float64{math.NaN(), math.Inf(1)}}})
	if !strings.Contains(out, "</svg>") {
		t.Fatal("truncated SVG")
	}
	out = SVG("t", "x", "y", []float64{3},
		[]metrics.Series{{Label: "s", Values: []float64{5}}})
	if strings.Contains(out, "<polyline") {
		t.Fatal("single point must not emit a polyline")
	}
}
