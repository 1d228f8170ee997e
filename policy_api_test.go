package adca_test

import (
	"reflect"
	"strings"
	"testing"

	"repro"
)

// The facade's policy surface: the Scenario's policy fields, name
// validation, and the explicit-default equivalence.

// policies sets the scenario's predictor and lender by registered name.
func policies(sc adca.Scenario, predictor, lender string) adca.Scenario {
	sc.Predictor = &adca.PolicySpec{Name: predictor}
	sc.Lender = &adca.PolicySpec{Name: lender}
	return sc
}

func TestPolicyOptionCompose(t *testing.T) {
	sc := adca.Scenario{Wrap: true, Seed: 3, Obs: &adca.ObsConfig{}}
	sc.Predictor = &adca.PolicySpec{Name: "ewma", Params: map[string]float64{"alpha": 0.2}}
	sc.Lender = &adca.PolicySpec{Name: "interference-aware"}
	net, err := adca.New(sc)
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
		t.Fatal("Scenario.Obs did not enable metrics")
	}
}

func TestPolicyOptionsChangeTrajectory(t *testing.T) {
	run := func(sc adca.Scenario) adca.Stats {
		net, err := adca.New(sc)
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
	sc := adca.Scenario{Wrap: true, Seed: 3}
	def := run(sc)
	same := run(policies(sc, "linear", "best"))
	if def != same {
		t.Errorf("explicit default policies changed the trajectory:\n def  %+v\n same %+v", def, same)
	}
	other := run(policies(sc, "last-value", "reused-frequency"))
	if def == other {
		t.Error("non-default policies produced the default trajectory (seam not plumbed?)")
	}
}

func TestUnknownPolicyNamesError(t *testing.T) {
	if _, err := adca.New(adca.Scenario{Predictor: &adca.PolicySpec{Name: "oracle"}}); err == nil {
		t.Fatal("unknown predictor accepted")
	} else if !strings.Contains(err.Error(), "oracle") || !strings.Contains(err.Error(), "linear") {
		t.Fatalf("predictor error unhelpful: %v", err)
	}
	if _, err := adca.New(adca.Scenario{Lender: &adca.PolicySpec{Name: "greedy"}}); err == nil {
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
	sc := policies(adca.Scenario{Wrap: true, Seed: 4}, "damped-trend", "reused-frequency")
	w := adca.Workload{ErlangPerCell: 8, DurationTicks: 15_000, WarmupTicks: 1_500, Seed: 4}
	net, err := adca.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := net.RunWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	serialStats := net.Stats()
	par, st, err := adca.RunParallel(sc, w, adca.WithShards(7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par, serial) {
		t.Errorf("parallel workload stats diverged:\n par    %+v\n serial %+v", par, serial)
	}
	if st.Grants != serialStats.Grants || st.Denies != serialStats.Denies ||
		st.Messages != serialStats.Messages {
		t.Errorf("parallel driver tallies diverged: %d/%d/%d vs %d/%d/%d",
			st.Grants, st.Denies, st.Messages,
			serialStats.Grants, serialStats.Denies, serialStats.Messages)
	}
}
