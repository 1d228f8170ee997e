package experiments

import (
	"strings"
	"testing"

	"repro/internal/message"
)

func TestAblationLenderShape(t *testing.T) {
	res, err := AblationLender(fastEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("policies: %v", res.Rows)
	}
	for _, policy := range res.Rows {
		if a := res.Value(policy, "attempts/borrow"); !(a >= 0) {
			t.Errorf("policy %s: attempts %v", policy, a)
		}
	}
	out := res.Render()
	for _, frag := range []string{"F5d", "best", "first", "random"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q:\n%s", frag, out)
		}
	}
}

func TestMobilityHandoffDropsGrowForFixed(t *testing.T) {
	e := fastEnv()
	res, err := Mobility(e, []float64{0.5, 4}, []string{"fixed", "adaptive"})
	if err != nil {
		t.Fatal(err)
	}
	fx := res.Values("fixed")
	ad := res.Values("adaptive")
	if len(fx) != 2 || len(ad) != 2 {
		t.Fatalf("curves: %v", res.Series)
	}
	// Handoff drops must be a probability and the adaptive scheme must
	// not be (meaningfully) worse than fixed at high mobility.
	for _, s := range res.Series {
		for _, v := range s.Values {
			if v < 0 || v > 1 {
				t.Fatalf("%s: drop prob %v out of range", s.Label, v)
			}
		}
	}
	if ad[1] > fx[1]+0.02 {
		t.Errorf("adaptive handoff drops (%v) should not exceed fixed (%v)", ad[1], fx[1])
	}
	if !strings.Contains(res.Render(), "F9") {
		t.Error("render")
	}
}

func TestLatencySensitivity(t *testing.T) {
	e := fastEnv()
	res, err := Latency(e, nil, []string{"adaptive", "basic-search"})
	if err != nil {
		t.Fatal(err)
	}
	bs := res.Values("basic-search")
	ad := res.Values("adaptive")
	if len(bs) != 4 || len(ad) != 4 {
		t.Fatalf("curves: %v", res.Series)
	}
	// Basic search's absolute delay must grow ~linearly with T (>= 2T);
	// the adaptive scheme's must stay well below it at every T.
	for i, T := range res.X {
		if bs[i] < 2*T*0.9 {
			t.Errorf("T=%v: search delay %v below 2T", T, bs[i])
		}
		if ad[i] > bs[i]*0.6 {
			t.Errorf("T=%v: adaptive delay %v not clearly below search %v", T, ad[i], bs[i])
		}
	}
	if !strings.Contains(res.Render(), "F11") {
		t.Error("render")
	}
}

func TestRepackingReducesOrMatchesBlocking(t *testing.T) {
	e := fastEnv()
	res, err := Repacking(e, []float64{1.6})
	if err != nil {
		t.Fatal(err)
	}
	plain := res.Values("plain")[0]
	repack := res.Values("repack")[0]
	// Repacking can only help (frees sharable channels earlier); allow
	// small statistical noise in the other direction.
	if repack > plain+0.03 {
		t.Errorf("repacking worsened blocking: %v vs %v", repack, plain)
	}
	if !strings.Contains(res.Render(), "F12") {
		t.Error("render")
	}
}

func TestTransientComparison(t *testing.T) {
	res, err := Transient(fastEnv(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("schemes: %v", res.Rows)
	}
	hot := func(scheme string) float64 { return res.Value(scheme, "hot blocking") }
	msgs := func(scheme string) float64 { return res.Value(scheme, "msgs/call") }
	// Both absorb the transient; adaptive must not block meaningfully
	// more at the hot cell, and must spend fewer messages per call than
	// pure search baselines at the mixed load.
	if !(hot("adaptive") <= hot("allocated-search")+0.05) {
		t.Errorf("adaptive hot blocking %v much worse than allocated-search %v",
			hot("adaptive"), hot("allocated-search"))
	}
	if !(msgs("adaptive") < msgs("basic-search")) {
		t.Errorf("adaptive msgs/call (%v) should undercut basic search (%v) at mixed load",
			msgs("adaptive"), msgs("basic-search"))
	}
	if !strings.Contains(res.Render(), "F10") {
		t.Error("render")
	}
}

func TestBreakdownShape(t *testing.T) {
	e := fastEnv()
	res, err := Breakdown(e, []string{"adaptive", "basic-search"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || len(res.Cols) != message.NumKinds+1 {
		t.Fatalf("shape: %+v", res)
	}
	// Basic search: per call exactly N requests and N responses, no
	// change-mode/acquisition/release traffic.
	bs := make([]float64, message.NumKinds)
	for k := range bs {
		bs[k] = res.Value("basic-search", message.Kind(k).String())
	}
	if bs[0] < 17 || bs[0] > 19 || bs[1] < 17 || bs[1] > 19 {
		t.Errorf("search request/response per call = %v/%v, want ~18", bs[0], bs[1])
	}
	if bs[2] != 0 || bs[3] != 0 || bs[4] != 0 {
		t.Errorf("search must have no change-mode/acq/release traffic: %v", bs)
	}
	if b := res.Value("basic-search", "bytes/call"); !(b >= 32*36) {
		t.Errorf("search bytes/call = %v, below 36 messages x 32-byte header", b)
	}
	if !strings.Contains(res.Render(), "A1") {
		t.Error("render")
	}
}
