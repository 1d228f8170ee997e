package experiments

import "repro/internal/traffic"

// RunScheme drives the workload through the named scheme once per seed
// and averages the outcomes. Replications are independent simulations
// scheduled on the shared bounded worker pool (see pool.go);
// aggregation order is fixed by seed order, keeping results
// deterministic at any pool width.
func RunScheme(env Env, scheme string, profile traffic.Profile, handoffRate float64) (Measured, error) {
	rs, err := sweep(env, []spec{{env: env, scheme: scheme, profile: profile, handoff: handoffRate}})
	if err != nil {
		return Measured{}, err
	}
	return rs[0].Measured, nil
}
