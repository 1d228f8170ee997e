package traffic_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/policy"
	"repro/internal/registry"
	"repro/internal/traffic"
)

// TestPolicyPairsParallelDeterminism extends the sharded kernel's
// determinism contract to the pluggable policy seam: every registered
// predictor × lender-strategy pair must produce the serial trajectory on
// the sharded driver at every worker count. A policy that read
// schedule-dependent state (wall clock, shared RNG, map order) would
// diverge here.
func TestPolicyPairsParallelDeterminism(t *testing.T) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	assign := chanset.MustAssign(g, 70)
	spec := traffic.Spec{
		Profile:  traffic.Uniform{PerCell: 9.0 / 3000}, // borrow-heavy: the lender seam runs
		MeanHold: 3000,
		Duration: 2_500,
		Warmup:   500,
		Seed:     5,
	}
	widths := []int{1, 2, 4, runtime.NumCPU()}

	type outcome struct {
		grants, denies, messages uint64
		counters                 alloc.Counters
		traffic                  traffic.Stats
	}
	for _, pred := range policy.Predictors() {
		for _, lend := range policy.Strategies() {
			pair := pred + "/" + lend
			t.Run(pair, func(t *testing.T) {
				params := core.Params{}
				pb, err := policy.BuildPredictor(policy.Spec{Name: pred})
				if err != nil {
					t.Fatal(err)
				}
				ls, err := policy.BuildStrategy(policy.Spec{Name: lend})
				if err != nil {
					t.Fatal(err)
				}
				params.Predictor, params.Strategy = pb, ls
				factory, err := registry.Build("adaptive", g, assign, registry.Config{Latency: 10, Adaptive: params})
				if err != nil {
					t.Fatal(err)
				}
				s := driver.New(g, assign, factory, driver.Options{Latency: 10, Seed: 5})
				sts, err := traffic.Run(s, spec)
				if err != nil {
					t.Fatal(err)
				}
				sst := s.Stats()
				serial := outcome{
					grants: sst.Grants, denies: sst.Denies, messages: sst.Messages.Total,
					counters: sst.Counters, traffic: sts,
				}
				if serial.grants == 0 {
					t.Fatal("workload too tame: no grants")
				}
				for _, workers := range widths {
					p, err := driver.NewParallel(g, assign, factory, driver.ParallelOptions{
						Latency: 10, Seed: 5, Shards: 7, Workers: workers,
					})
					if err != nil {
						t.Fatal(err)
					}
					pts, err := traffic.Run(p, spec)
					if err != nil {
						t.Fatal(err)
					}
					if err := p.CheckInvariant(); err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					pst := p.Stats()
					par := outcome{
						grants: pst.Grants, denies: pst.Denies, messages: pst.Messages.Total,
						counters: pst.Counters, traffic: pts,
					}
					if !reflect.DeepEqual(par, serial) {
						t.Errorf("workers=%d diverged from serial:\n par    %s\n serial %s",
							workers, fmt.Sprintf("%+v", par), fmt.Sprintf("%+v", serial))
					}
				}
			})
		}
	}
}
