package adca_test

import (
	"strings"
	"testing"

	"repro"
)

// The facade's policy surface: option composition, name validation, and
// the deprecated-wrapper equivalence.

func TestPolicyOptionCompose(t *testing.T) {
	sc := adca.Scenario{Wrap: true, Seed: 3}
	net, err := adca.New(sc,
		adca.WithPredictor("ewma", map[string]float64{"alpha": 0.2}),
		adca.WithLender("interference-aware", nil),
		adca.WithObs(adca.ObsConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	ws, err := net.RunWorkload(adca.Workload{ErlangPerCell: 6, DurationTicks: 15_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ws.Offered == 0 {
		t.Fatal("no traffic offered")
	}
	if net.Metrics() == nil {
		t.Fatal("WithObs did not enable metrics")
	}
}

func TestPolicyOptionsChangeTrajectory(t *testing.T) {
	run := func(opts ...adca.Option) adca.Stats {
		net, err := adca.New(adca.Scenario{Wrap: true, Seed: 3}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		// Heavy load so the borrow path (and with it the lender seam)
		// actually runs.
		if _, err := net.RunWorkload(adca.Workload{ErlangPerCell: 9, DurationTicks: 20_000, Seed: 3}); err != nil {
			t.Fatal(err)
		}
		return net.Stats()
	}
	def := run()
	same := run(adca.WithPredictor("linear", nil), adca.WithLender("best", nil))
	if def != same {
		t.Errorf("explicit default policies changed the trajectory:\n def  %+v\n same %+v", def, same)
	}
	other := run(adca.WithPredictor("last-value", nil), adca.WithLender("reused-frequency", nil))
	if def == other {
		t.Error("non-default policies produced the default trajectory (seam not plumbed?)")
	}
}

func TestUnknownPolicyNamesError(t *testing.T) {
	if _, err := adca.New(adca.Scenario{}, adca.WithPredictor("oracle", nil)); err == nil {
		t.Fatal("unknown predictor accepted")
	} else if !strings.Contains(err.Error(), "oracle") || !strings.Contains(err.Error(), "linear") {
		t.Fatalf("predictor error unhelpful: %v", err)
	}
	if _, err := adca.New(adca.Scenario{}, adca.WithLender("greedy", nil)); err == nil {
		t.Fatal("unknown lender accepted")
	} else if !strings.Contains(err.Error(), "greedy") || !strings.Contains(err.Error(), "best") {
		t.Fatalf("lender error unhelpful: %v", err)
	}
	if _, err := adca.New(adca.Scenario{
		Predictor: &adca.PolicySpec{Name: "ewma", Params: map[string]float64{"alpha": 7}},
	}); err == nil {
		t.Fatal("out-of-range parameter accepted")
	} else if !strings.Contains(err.Error(), "alpha") {
		t.Fatalf("parameter error unhelpful: %v", err)
	}
}

func TestPolicyRegistriesExported(t *testing.T) {
	preds, lends := adca.Predictors(), adca.LenderStrategies()
	if len(preds) < 4 || len(lends) < 5 {
		t.Fatalf("facade registries too small: %v / %v", preds, lends)
	}
}

// TestRunParallelPolicyOptions drives a non-default pair through the
// sharded runner and checks serial equality — the seam must stay
// deterministic under the parallel kernel through the facade too.
func TestRunParallelPolicyOptions(t *testing.T) {
	sc := adca.Scenario{Wrap: true, Seed: 4}
	w := adca.Workload{ErlangPerCell: 8, DurationTicks: 15_000, WarmupTicks: 1_500, Seed: 4}
	opts := []adca.Option{
		adca.WithPredictor("damped-trend", nil),
		adca.WithLender("reused-frequency", nil),
	}
	net, err := adca.New(sc, opts...)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := net.RunWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	serialStats := net.Stats()
	par, st, err := adca.RunParallel(sc, w, append(opts, adca.WithShards(7))...)
	if err != nil {
		t.Fatal(err)
	}
	if par != serial {
		t.Errorf("parallel workload stats diverged:\n par    %+v\n serial %+v", par, serial)
	}
	if st.Grants != serialStats.Grants || st.Denies != serialStats.Denies ||
		st.Messages != serialStats.Messages {
		t.Errorf("parallel driver tallies diverged: %d/%d/%d vs %d/%d/%d",
			st.Grants, st.Denies, st.Messages,
			serialStats.Grants, serialStats.Denies, serialStats.Messages)
	}
}
