package experiments

import (
	"strings"
	"testing"

	"repro/internal/policy"
)

// TestPolicySweepDeterministicAcrossWidths mirrors the pool determinism
// contract for the new predictor × strategy sweep: the rendered
// comparison artifact must be byte-identical at any worker count.
func TestPolicySweepDeterministicAcrossWidths(t *testing.T) {
	env := DefaultEnv()
	env.Duration = 20_000
	env.Warmup = 4_000
	env.Seeds = []uint64{7}
	render := func(workers int) string {
		e := env
		e.Workers = workers
		r, _, err := PolicySweep(e, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r.Render()
	}
	base := render(1)
	if got := render(4); got != base {
		t.Errorf("policy sweep artifact differs between workers=1 and workers=4:\n%s\n---\n%s", base, got)
	}
	if !strings.Contains(base, "linear") || !strings.Contains(base, "best") {
		t.Errorf("policy sweep artifact missing default policies:\n%s", base)
	}
}

// TestPolicySweepCoverage asserts the default sweep matrix covers every
// registered predictor and strategy plus every comparison scheme.
func TestPolicySweepCoverage(t *testing.T) {
	env := DefaultEnv()
	env.Duration = 12_000
	env.Warmup = 2_000
	env.Seeds = []uint64{7}
	r, csv, err := PolicySweep(env, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	preds, lends := len(policy.Predictors()), len(policy.Strategies())
	if preds < 3 || lends < 3 {
		t.Fatalf("sweep must cover >= 3 predictors and >= 3 lender strategies, got %d x %d", preds, lends)
	}
	want := preds*lends + len(Schemes()) - 1
	if len(r.Rows) != want {
		t.Fatalf("sweep rows = %d, want %d (predictors x lenders + baseline schemes)", len(r.Rows), want)
	}
	if lines := strings.Count(csv, "\n"); lines != want+1 {
		t.Fatalf("CSV has %d lines, want a header and %d rows", lines, want)
	}
	art := r.Render()
	for _, name := range policy.Predictors() {
		if !strings.Contains(art, name) {
			t.Errorf("artifact missing predictor %q", name)
		}
	}
	for _, name := range policy.Strategies() {
		if !strings.Contains(art, name) {
			t.Errorf("artifact missing strategy %q", name)
		}
	}
}
