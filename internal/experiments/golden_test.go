package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"repro/internal/chanset"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/raceflag"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// hashU64s feeds a fixed-order sequence of uint64s into h.
func hashU64s(h hash.Hash, vs ...uint64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
}

func hashWelford(h hash.Hash, w metrics.Welford) {
	hashU64s(h, w.N())
	if w.N() > 0 {
		hashU64s(h, floatBits(w.Mean()), floatBits(w.Var()), floatBits(w.Min()), floatBits(w.Max()))
	}
}

func floatBits(f float64) uint64 {
	// Normalize the two zero encodings so -0.0 and +0.0 hash alike.
	if f == 0 {
		return 0
	}
	return math.Float64bits(f)
}

// trajectoryHash digests the observable outcome of a run: the driver's
// aggregate stats (including per-cell tallies and the protocol
// counters) and the workload's telephony stats. Two runs hash equal iff
// every one of those numbers is identical.
func trajectoryHash(st driver.Stats, ts traffic.Stats) string {
	h := sha256.New()
	hashU64s(h, st.Grants, st.Denies, st.Messages.Total, st.Messages.Bytes)
	for _, k := range st.Messages.ByKind {
		hashU64s(h, k)
	}
	hashWelford(h, st.AcqDelay)
	hashWelford(h, st.TotalDelay)
	hashWelford(h, st.QueueDelay)
	hashU64s(h, floatBits(st.DelayP95))
	c := st.Counters
	hashU64s(h,
		c.GrantsLocal, c.GrantsUpdate, c.GrantsSearch, c.Drops,
		c.UpdateAttempts, c.ModeChanges, c.Deferred, c.BadReleases)
	hashU64s(h, uint64(len(st.CellGrants)))
	for i := range st.CellGrants {
		hashU64s(h, st.CellGrants[i], st.CellDenies[i])
	}
	hashU64s(h, ts.Offered, ts.Blocked, ts.HandoffAttempts, ts.HandoffDrops)
	for i := range ts.PerCellOffered {
		hashU64s(h, ts.PerCellOffered[i], ts.PerCellBlocked[i])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenRun is one pinned trajectory: the adaptive scheme on a wrapped
// reuse-2 grid, 70 channels, T = 10, mean hold 3000, driver seed =
// spec seed = 101, warm-up = duration / 5. The first two hashes were
// captured on the commit immediately before the policy seam was
// extracted (PR 7), so they certify that the default Predictor and
// LenderStrategy reproduce the paper's hard-coded check_mode/Best()
// behavior bit for bit; the rest are the hashes the bench harness
// retired in PR 19 had pinned, copied from its baseline at 7a031b8.
type goldenRun struct {
	name          string
	width, height int
	erlang        float64
	handoff       float64
	duration      sim.Time
	// predictor and lender name a registered policy pair; empty runs
	// the zero-value core.Params (policy seam fully defaulted).
	predictor, lender string
	// shards > 0 runs driver.NewParallel + traffic.RunParallel at that
	// (shards, workers) corner; 0 runs driver.New + traffic.Run.
	shards, workers int
	// steady replaces the uniform profile with steadyProfile,
	// warm-started and drained 100 ticks past the arrival window.
	steady bool
	// events and borrow, when non-zero, are the expected Executed()
	// and update attempts + search grants + drops.
	events, borrow uint64
	hash           string
}

func policyRow(predictor, lender, hash string) goldenRun {
	return goldenRun{name: "12x12-" + predictor + "+" + lender, width: 12, height: 12, erlang: 9, duration: 3000,
		predictor: predictor, lender: lender, hash: hash}
}

var goldenRuns = []goldenRun{
	{name: "12x12-borrow", width: 12, height: 12, erlang: 9, duration: 8000,
		hash: "5c96389351e9f1c36023c18de2f05eb73a8e5a0d4660525865f54cd4d7defb34"},
	{name: "10x10-mobile", width: 10, height: 10, erlang: 8, handoff: 0.00067, duration: 6000,
		hash: "34791a7a5feb3181e2521d6d8ec95a38c797f6bf3e06fba1b99a869eb537eefc"},

	{name: "50x50-sharded", width: 50, height: 50, erlang: 9, duration: 3000, shards: 16, workers: 2, events: 921_254,
		hash: "8abd9b612873067c5024fdff022e048f54ebc3a16ffb3d4473a6050543378757"},
	// ~2 handoffs per call: the cross-shard relay path.
	{name: "50x50-sharded-mobile", width: 50, height: 50, erlang: 9, handoff: 0.00067, duration: 3000, shards: 16, workers: 2, events: 2_766_217,
		hash: "dd0832c1805a84d3627a34a7d1c3a81bf396940eb70cea78feb471a3eb636ed4"},
	{name: "100x100-sharded", width: 100, height: 100, erlang: 9, duration: 1500, shards: 16, workers: 2, events: 1_559_231,
		hash: "086aabe7d2e395c215197b3e8d7544efae16178f2091d676ba636dfb30cd359d"},
	{name: "500x500-cold", width: 500, height: 500, erlang: 9, duration: 300, shards: 64, workers: 2, events: 509_423,
		hash: "12e57dac4d1131243aae099a3400b2bfb18cc531148129c043d6db4fb7ff1ba4"},
	// The borrow count is what keeps this row "under pressure": a
	// steady run that stopped borrowing would be a different workload.
	{name: "500x500-steady", width: 500, height: 500, duration: 150, shards: 64, workers: 2, steady: true, events: 25_903_202, borrow: 218_752,
		hash: "781f1295b6dcdd2842cebc10727b17415822096b805dac55905a6ac1c473c5ef"},

	policyRow("linear", "best", "7c12712a0e54e5000d251c1a0274b1fa340df572c7ee9e031e93401edd8a446c"),
	policyRow("linear", "first", "31b89cf72e6a80c3db7bc8b414a1cdd47ceecab2dbed6f93e3988d79b40766e7"),
	policyRow("linear", "interference-aware", "4e14c269109c93b6017aa8146009d708d2dbe7da791d87d3b34e27bc2902a7c4"),
	policyRow("linear", "random", "46a1a208fc61908a94447d745667cfae72b6ec8242d0e7b93b0df430c150a56c"),
	policyRow("linear", "reused-frequency", "d95ac02cbc703b401aa027b2559c9c5f232ac215215bfae9f10ff2f462440cf1"),
	policyRow("damped-trend", "best", "7a1e2852e212c451fa574f42947177868fd9ac2575f15f3ac5e3acbcf14a0c3a"),
	policyRow("damped-trend", "first", "9143d083751fe383ad6703ff7e5db32ac72ec6faeae07849643a0fc1a78fc78a"),
	policyRow("damped-trend", "interference-aware", "69985e72aed8d718736357d5681f2c92da9b4af81b219be407ccd6266c39fc7a"),
	policyRow("damped-trend", "random", "cdefaa906beebf86f3ea5f468bf29f845153fcb6128d1706fe161f3294ee18f7"),
	policyRow("damped-trend", "reused-frequency", "b86007f516a26ff87f844e004eaeacf6bf2f1ea8ef5cda6dfbdef18198c88457"),
	policyRow("ewma", "best", "9332aa171ff466e936e5979878049c0abb368db62bb676c54fea2feeb263639c"),
	policyRow("ewma", "first", "0ce9e9404337e6d1876f2c5c2290eeaaeca25416f3a555d876fc35889ea3b9ac"),
	policyRow("ewma", "interference-aware", "da35231532dd9045cdf38286a35216bd03c054490edf86824e0a0876c9fbbc5b"),
	policyRow("ewma", "random", "9290f375d4afee4b6c4262d3dc6783498f568ba2913b906b9e4b4a6cc94e3637"),
	policyRow("ewma", "reused-frequency", "388c0bd5fd0eab52b2e848f7d8e98203f6083c9f99e9ae0ee093a195e874bf30"),
	policyRow("last-value", "best", "e0eb117b8ef752c259bf3eec019e6452a46bff31c7023aab4cd7aa88703d91de"),
	policyRow("last-value", "first", "bde54e696260530da262ca112fb68a28201085b4de09f888fb1eb5e882ba738b"),
	policyRow("last-value", "interference-aware", "8c15ddcaec90f30ad80e95a1f84db67fb34b8d20cb404cc86cd0a2169cd6972d"),
	policyRow("last-value", "random", "fb3100b4f60d12216e2e9ec4932dc40d901f27dade1e034ae56a0ab3fd1296ad"),
	policyRow("last-value", "reused-frequency", "37f575200c6cc66a4aa3ea046c7d45a30a7b43339186d44004d35a3df6af21c6"),
}

// steadyProfile is the hot-spot-at-scale workload: 9 Erlang everywhere
// with five radius-2 zones at 13.5 Erlang — past the 10-channel primary
// set, so they borrow for the whole run — at the four quarter points
// and the center of the lattice, active over the whole arrival window.
func steadyProfile(t *testing.T, grid *hexgrid.Grid, c goldenRun) traffic.Profile {
	t.Helper()
	ps := traffic.ProfileSpec{BaseRate: 9.0 / 3000}
	w, h := c.width, c.height
	for _, xy := range [][2]int{
		{w / 4, h / 4}, {3 * w / 4, h / 4},
		{w / 4, 3 * h / 4}, {3 * w / 4, 3 * h / 4},
		{w / 2, h / 2},
	} {
		ps.Phases = append(ps.Phases, traffic.PhaseSpec{
			Center: hexgrid.CellID(xy[1]*w + xy[0]), // Rect id = row*width+col
			Radius: 2,
			Rate:   13.5 / 3000,
			Start:  0,
			End:    c.duration + 1,
		})
	}
	profile, err := traffic.BuildProfile(grid, ps)
	if err != nil {
		t.Fatal(err)
	}
	return profile
}

// goldenOutcome is what a golden run is compared on.
type goldenOutcome struct {
	st     driver.Stats
	ts     traffic.Stats
	events uint64
}

func (o goldenOutcome) borrowAttempts() uint64 {
	c := o.st.Counters
	return c.UpdateAttempts + c.GrantsSearch + c.Drops
}

// String lists the scalars the hash digests, so a mismatch reads as
// "float order" (only a mean moved) or "a different trajectory".
func (o goldenOutcome) String() string {
	st, ts, c := o.st, o.ts, o.st.Counters
	w := func(w metrics.Welford) string { return fmt.Sprintf("n=%d mean=%.17g", w.N(), w.Mean()) }
	return fmt.Sprintf("executed %d; grants %d denies %d; messages %d by kind %v;\n"+
		"  counters local %d update %d search %d drops %d attempts %d modes %d deferred %d bad-releases %d;\n"+
		"  acq %s; total %s; queue %s; p95 %.17g;\n"+
		"  offered %d blocked %d handoffs %d handoff-drops %d",
		o.events, st.Grants, st.Denies, st.Messages.Total, st.Messages.ByKind,
		c.GrantsLocal, c.GrantsUpdate, c.GrantsSearch, c.Drops, c.UpdateAttempts, c.ModeChanges, c.Deferred, c.BadReleases,
		w(st.AcqDelay), w(st.TotalDelay), w(st.QueueDelay), st.DelayP95,
		ts.Offered, ts.Blocked, ts.HandoffAttempts, ts.HandoffDrops)
}

// params is the adaptive tuning the row runs under.
func (c goldenRun) params(t *testing.T) core.Params {
	t.Helper()
	if c.predictor == "" {
		return core.Params{}
	}
	pb, err := policy.BuildPredictor(policy.Spec{Name: c.predictor})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := policy.BuildStrategy(policy.Spec{Name: c.lender})
	if err != nil {
		t.Fatal(err)
	}
	return core.Params{Predictor: pb, Strategy: ls}
}

func runGolden(t *testing.T, c goldenRun, params core.Params) goldenOutcome {
	t.Helper()
	g := hexgrid.MustNew(hexgrid.Config{
		Shape: hexgrid.Rect, Width: c.width, Height: c.height,
		ReuseDistance: 2, Wrap: true,
	})
	assign := chanset.MustAssign(g, 70)
	factory, err := registry.Build("adaptive", g, assign, registry.Config{Latency: 10, Adaptive: params})
	if err != nil {
		t.Fatal(err)
	}
	spec := traffic.Spec{
		Profile:     traffic.Uniform{PerCell: c.erlang / 3000},
		MeanHold:    3000,
		HandoffRate: c.handoff,
		Duration:    c.duration,
		Warmup:      c.duration / 5,
		Seed:        101,
	}
	if c.steady {
		spec.Profile = steadyProfile(t, g, c)
		spec.WarmStart = true
		spec.DrainHorizon = 100
	}
	if c.shards == 0 {
		s := driver.New(g, assign, factory, driver.Options{Latency: 10, Seed: 101})
		ts, err := traffic.Run(s, spec)
		if err != nil {
			t.Fatal(err)
		}
		return goldenOutcome{s.Stats(), ts, s.Engine().Executed()}
	}
	p, err := driver.NewParallel(g, assign, factory, driver.ParallelOptions{
		Latency: 10, Seed: 101, Shards: c.shards, Workers: c.workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := traffic.RunParallel(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	return goldenOutcome{p.Stats(), ts, p.Kernel().Executed()}
}

// TestTrajectoryGoldens is where trajectory hashes are pinned: the
// pre-seam default-policy runs, the sharded grids (each at one
// (shards, workers) corner; the DeepEqual matrices in internal/traffic
// and internal/driver carry the rest), and every registered predictor ×
// lender pair.
func TestTrajectoryGoldens(t *testing.T) {
	pinned := map[[2]string]bool{}
	for _, c := range goldenRuns {
		pinned[[2]string{c.predictor, c.lender}] = true
		t.Run(c.name, func(t *testing.T) {
			if c.width*c.height >= 250_000 && (testing.Short() || raceflag.Enabled) {
				t.Skip("250k-cell row: skipped with -short and under the race detector")
			}
			o := runGolden(t, c, c.params(t))
			if h := trajectoryHash(o.st, o.ts); h != c.hash {
				t.Errorf("trajectory hash %s != golden %s\n  %v", h, c.hash, o)
			}
			if c.events != 0 && o.events != c.events {
				t.Errorf("executed %d events, want %d", o.events, c.events)
			}
			if c.borrow != 0 && o.borrowAttempts() != c.borrow {
				t.Errorf("%d borrow attempts (update attempts + search grants + drops), want %d", o.borrowAttempts(), c.borrow)
			}
		})
	}
	for _, predictor := range policy.Predictors() {
		for _, lender := range policy.Strategies() {
			if !pinned[[2]string{predictor, lender}] {
				t.Errorf("registered pair %s + %s has no golden row", predictor, lender)
			}
		}
	}
}

// TestExplicitDefaultPoliciesBitIdentical asserts that selecting the
// defaults *by name* through the policy registry changes nothing: the
// explicit ("linear", "best") pair hashes equal to the zero value.
func TestExplicitDefaultPoliciesBitIdentical(t *testing.T) {
	byName := goldenRun{predictor: "linear", lender: "best"}.params(t)
	params := core.DefaultParams(10)
	params.Predictor, params.Strategy = byName.Predictor, byName.Strategy
	for _, c := range goldenRuns[:2] {
		o := runGolden(t, c, params)
		if h := trajectoryHash(o.st, o.ts); h != c.hash {
			t.Errorf("%s: explicit linear/best trajectory hash %s != golden %s", c.name, h, c.hash)
		}
	}
}
