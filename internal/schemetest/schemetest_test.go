package schemetest_test

import (
	"testing"

	"repro/internal/schemetest"
)

// The harness itself is exercised constantly by the scheme packages;
// these tests cover its configuration plumbing.

func TestDefaultGridShape(t *testing.T) {
	g := schemetest.DefaultGrid()
	if g.Width != 7 || g.Height != 7 || g.ReuseDistance != 2 || !g.Wrap {
		t.Fatalf("default grid changed: %+v", g)
	}
}

func TestBuildAppliesLatencyDefault(t *testing.T) {
	s := schemetest.Build(t, "fixed", schemetest.Scenario{
		Grid: schemetest.DefaultGrid(), Channels: 70,
	})
	if s.Latency() != 10 {
		t.Fatalf("latency = %d", s.Latency())
	}
}

func TestRandomWorkloadReturnsStats(t *testing.T) {
	st := schemetest.RandomWorkload(t, "fixed", schemetest.Scenario{
		Grid: schemetest.DefaultGrid(), Channels: 70, Events: 50,
		MeanGap: 50, MeanHold: 500, Seed: 9,
	})
	if st.Grants+st.Denies != 50 {
		t.Fatalf("stats lost requests: %+v", st)
	}
}

// TestConformanceAdaptive runs the battery for the paper's own scheme,
// which lives in a package the harness imports and so cannot call it
// itself: with the baselines' own TestConformance, all six schemes face
// it — the multicast-equals-sends case included.
func TestConformanceAdaptive(t *testing.T) {
	schemetest.Conformance(t, "adaptive")
}
