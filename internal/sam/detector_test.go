package sam

import (
	"encoding/json"
	"math"
	"testing"

	"samnet/internal/routing"
	"samnet/internal/stats"
	"samnet/internal/topology"
)

// normalRoutes builds a spread-out route set: many distinct links, no
// dominant one.
func normalRoutes(variant int) []routing.Route {
	base := topology.NodeID(20 * variant)
	mk := func(ids ...int) routing.Route {
		r := make(routing.Route, len(ids))
		for i, id := range ids {
			r[i] = base + topology.NodeID(id)
		}
		return r
	}
	return []routing.Route{
		mk(0, 1, 2, 3, 19),
		mk(0, 4, 5, 6, 19),
		mk(0, 7, 8, 9, 19),
		mk(0, 1, 5, 9, 19),
		mk(0, 4, 8, 3, 19),
	}
}

// attackRoutes builds a route set where one link (100-101) dominates, as a
// wormhole tunnel does.
func attackRoutes() []routing.Route {
	return []routing.Route{
		{0, 100, 101, 11, 19},
		{1, 100, 101, 12, 19},
		{2, 100, 101, 13, 19},
		{3, 100, 101, 14, 19},
		{4, 100, 101, 15, 19},
		{5, 100, 101, 16, 19},
	}
}

func trainedDetector(t *testing.T) *Detector {
	t.Helper()
	tr := NewTrainer("test", 0)
	for v := 0; v < 12; v++ {
		tr.ObserveRoutes(normalRoutes(v))
	}
	prof, err := tr.Profile()
	if err != nil {
		t.Fatal(err)
	}
	return NewDetector(prof, DetectorConfig{})
}

func TestTrainerRequiresRuns(t *testing.T) {
	tr := NewTrainer("empty", 0)
	if _, err := tr.Profile(); err == nil {
		t.Error("profile from zero runs should error")
	}
}

func TestTrainerIgnoresEmptyRouteSets(t *testing.T) {
	tr := NewTrainer("x", 0)
	tr.ObserveRoutes(nil)
	if tr.Runs() != 0 {
		t.Error("empty route set should not count as a run")
	}
}

func TestDetectorNormalIsNormal(t *testing.T) {
	d := trainedDetector(t)
	v := d.Evaluate(Analyze(normalRoutes(99)))
	if v.Decision != Normal {
		t.Errorf("decision = %v (lambda=%.3f zp=%.2f zphi=%.2f tv=%.2f)",
			v.Decision, v.Lambda, v.ZPMax, v.ZPhi, v.TV)
	}
	if v.Lambda < 0.9 {
		t.Errorf("lambda = %v, want near 1 for normal traffic", v.Lambda)
	}
}

func TestDetectorFlagsWormhole(t *testing.T) {
	d := trainedDetector(t)
	v := d.Evaluate(Analyze(attackRoutes()))
	if v.Decision == Normal {
		t.Fatalf("wormhole not flagged (lambda=%.3f zp=%.2f zphi=%.2f tv=%.2f)",
			v.Lambda, v.ZPMax, v.ZPhi, v.TV)
	}
	if v.Lambda > 0.7 {
		t.Errorf("lambda = %v, want low under attack", v.Lambda)
	}
	want := Analyze(attackRoutes()).MaxLink
	if v.SuspectLink != want {
		t.Errorf("suspect link = %v, want %v", v.SuspectLink, want)
	}
	if v.Suspects[0] != 100 || v.Suspects[1] != 101 {
		t.Errorf("suspects = %v, want the tunnel endpoints", v.Suspects)
	}
}

func TestDetectorEmptyRouteSet(t *testing.T) {
	d := trainedDetector(t)
	v := d.Evaluate(Analyze(nil))
	if v.Decision != Normal || v.Lambda != 1 {
		t.Errorf("empty evaluation = %+v", v)
	}
	// Nothing was judged, so the verdict carries no evidence either way.
	if v.ZPMax != 0 || v.ZPhi != 0 || v.TV != 0 {
		t.Errorf("empty evaluation scored z(p_max) %v, z(phi) %v, TV %v; want no evidence", v.ZPMax, v.ZPhi, v.TV)
	}
}

func TestLambdaMonotoneInDominance(t *testing.T) {
	// The more routes the tunnel captures, the lower lambda should go.
	d := trainedDetector(t)
	mkRoutes := func(tunnelShare int) []routing.Route {
		var rs []routing.Route
		for i := 0; i < tunnelShare; i++ {
			rs = append(rs, routing.Route{topology.NodeID(i), 100, 101, topology.NodeID(30 + i), 19})
		}
		for i := tunnelShare; i < 6; i++ {
			rs = append(rs, routing.Route{topology.NodeID(i), topology.NodeID(40 + i), topology.NodeID(50 + i), 19})
		}
		return rs
	}
	prev := 2.0
	for _, share := range []int{2, 4, 6} {
		v := d.Evaluate(Analyze(mkRoutes(share)))
		if v.Lambda > prev+1e-9 {
			t.Errorf("lambda rose from %.3f to %.3f as dominance grew", prev, v.Lambda)
		}
		prev = v.Lambda
	}
}

// TestDecisionBands pins the fixed cut points through Evaluate: the lambda
// bands (attackLambda and suspectLambda, both inclusive) and the TV ramp
// (tvLow to tvHigh). The profile is a unit-std feature pair at mean 0 with
// the z-ramp set to [0, 1], so a feature value is its own risk, and a PMF
// with all its mass in one bin, so a route set's TV is the share of its
// links outside that bin.
func TestDecisionBands(t *testing.T) {
	const bins = 10
	prof := &Profile{
		Label: "bands",
		PMax:  stats.Summary{Mean: 0, Std: 1},
		Phi:   stats.Summary{Mean: 0, Std: 1},
		PMF:   stats.NewPMF(bins),
	}
	prof.PMF.Add(0.55)
	d := NewDetector(prof, DetectorConfig{ZLow: ExplicitZero, ZHigh: 1})
	// mk builds a route set's statistics with offBin of its ten links
	// outside the profile's PMF bin.
	mk := func(pmax, phi float64, offBin int) Stats {
		s := Stats{Routes: 1, N: 10, PMax: pmax, Phi: phi}
		for i := 0; i < 10; i++ {
			p := 0.55
			if i < offBin {
				p = 0.05
			}
			s.ByLink = append(s.ByLink, LinkCount{Link: topology.MkLink(topology.NodeID(i), 99), Count: 1, P: p})
		}
		return s
	}
	cases := []struct {
		name   string
		s      Stats
		lambda float64
		want   Decision
	}{
		{"pmax at attack lambda", mk(0.75, 0, 0), 0.25, Attacked},
		{"pmax just above attack lambda", mk(0.7, 0, 0), 0.3, Suspicious},
		{"pmax at suspect lambda", mk(0.3, 0, 0), 0.7, Suspicious},
		{"pmax below suspect lambda", mk(0.25, 0, 0), 0.75, Normal},
		// phi risk 1 averaged with TV risk ramp(tv, 0.3, 0.7).
		{"tv at tvLow", mk(0, 1, 3), 0.5, Suspicious},
		{"tv inside ramp", mk(0, 1, 4), 0.375, Suspicious},
		{"tv at tvHigh", mk(0, 1, 7), 0, Attacked},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := d.Evaluate(tc.s)
			if math.Abs(v.Lambda-tc.lambda) > 1e-9 {
				t.Errorf("lambda = %v, want %v", v.Lambda, tc.lambda)
			}
			if v.Decision != tc.want {
				t.Errorf("decision = %v at lambda %v, want %v", v.Decision, v.Lambda, tc.want)
			}
		})
	}
}

func TestUpdateAdaptsOnlyWhenNormal(t *testing.T) {
	d := trainedDetector(t)
	pm0, ph0 := d.AdaptiveMeans()

	// Attacked observation with lambda = 0: no movement at all.
	d.Update(Analyze(attackRoutes()), 0)
	pm1, ph1 := d.AdaptiveMeans()
	if pm1 != pm0 || ph1 != ph0 {
		t.Error("lambda=0 update must not move the profile")
	}

	// Normal observation with lambda = 1: moves by beta toward observation.
	obs := Analyze(normalRoutes(3))
	d.Update(obs, 1)
	pm2, _ := d.AdaptiveMeans()
	beta := d.cfg.Beta
	want := beta*obs.PMax + (1-beta)*pm0
	if math.Abs(pm2-want) > 1e-12 {
		t.Errorf("update = %v, want %v (eq. 8)", pm2, want)
	}
}

func TestUpdateRejectsBadLambda(t *testing.T) {
	d := trainedDetector(t)
	defer func() {
		if recover() == nil {
			t.Error("lambda out of range should panic")
		}
	}()
	d.Update(Analyze(normalRoutes(0)), 1.5)
}

func TestUpdateIgnoresEmptyStats(t *testing.T) {
	d := trainedDetector(t)
	pm0, _ := d.AdaptiveMeans()
	d.Update(Analyze(nil), 1)
	pm1, _ := d.AdaptiveMeans()
	if pm0 != pm1 {
		t.Error("empty stats must not move the profile")
	}
}

func TestDetectorConfigValidation(t *testing.T) {
	tr := NewTrainer("x", 0)
	tr.ObserveRoutes(normalRoutes(0))
	prof, _ := tr.Profile()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("beta out of range should panic")
			}
		}()
		NewDetector(prof, DetectorConfig{Beta: 1.5})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil profile should panic")
			}
		}()
		NewDetector(nil, DetectorConfig{})
	}()
}

// TestDetectorConfigZeroSemantics pins the two meanings of "zero" in
// DetectorConfig: a literal 0 selects the documented default, while
// ExplicitZero (any negative value) selects a true zero.
func TestDetectorConfigZeroSemantics(t *testing.T) {
	tr := NewTrainer("x", 0)
	tr.ObserveRoutes(normalRoutes(0))
	prof, _ := tr.Profile()

	def := NewDetector(prof, DetectorConfig{}).cfg
	if want := (DetectorConfig{ZLow: 1.5, ZHigh: 4, Beta: 0.1}); def != want {
		t.Errorf("zero config resolved to %+v, want %+v", def, want)
	}

	got := NewDetector(prof, DetectorConfig{ZLow: ExplicitZero}).cfg
	if got.ZLow != 0 {
		t.Errorf("ExplicitZero ZLow resolved to %v, want a true zero", got.ZLow)
	}
	// Fields left at literal zero alongside an ExplicitZero one still default.
	if got.ZHigh != 4 || got.Beta != 0.1 {
		t.Errorf("defaulted fields corrupted by an ExplicitZero neighbour: %+v", got)
	}
	// Positive values pass through untouched.
	if c := NewDetector(prof, DetectorConfig{ZHigh: 5}).cfg; c.ZHigh != 5 {
		t.Errorf("explicit ZHigh 5 resolved to %v", c.ZHigh)
	}
}

// TestZScoreZeroStd: a degenerate profile (trained std 0) scores
// against the std floor, so a deviation gets a finite z-score and lambda
// stays a valid decision.
func TestZScoreZeroStd(t *testing.T) {
	obs, mean := 0.6, 0.5
	z := zScore(obs, mean, 0)
	if want := (obs - mean) / minStd; z != want || math.IsInf(z, 0) {
		t.Errorf("zScore(%v, %v, std=0) = %v, want %v", obs, mean, z, want)
	}
	if z := zScore(mean, mean, 0); z != 0 {
		t.Errorf("zScore(obs==mean, std=0) = %v, want 0", z)
	}
}

func TestDecisionString(t *testing.T) {
	for d, want := range map[Decision]string{
		Normal:     "normal",
		Suspicious: "suspicious",
		Attacked:   "attacked",
	} {
		if d.String() != want {
			t.Errorf("String(%v) = %q", int(d), d.String())
		}
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	tr := NewTrainer("cluster-1tier/MR", 25)
	for v := 0; v < 5; v++ {
		tr.ObserveRoutes(normalRoutes(v))
	}
	prof, _ := tr.Profile()
	blob, err := json.Marshal(prof)
	if err != nil {
		t.Fatal(err)
	}
	var back Profile
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Label != prof.Label || back.PMax != prof.PMax || back.Phi != prof.Phi {
		t.Error("round trip lost summaries")
	}
	if back.PMF.Total != prof.PMF.Total || back.PMF.Bins() != prof.PMF.Bins() {
		t.Error("round trip lost PMF")
	}
	if back.Runs != 5 {
		t.Errorf("round trip lost run count: got %d, want 5", back.Runs)
	}
}

// TestProfileJSONLegacyRuns: blobs written before the runs field existed
// still decode, reporting zero runs; negative counts are rejected.
func TestProfileJSONLegacyRuns(t *testing.T) {
	var p Profile
	legacy := `{"label":"x","pmf_counts":[1,2],"pmf_total":3}`
	if err := json.Unmarshal([]byte(legacy), &p); err != nil {
		t.Fatalf("legacy blob without runs should decode: %v", err)
	}
	if p.Runs != 0 {
		t.Errorf("legacy blob Runs = %d, want 0", p.Runs)
	}
	bad := `{"label":"x","runs":-3,"pmf_counts":[1,2],"pmf_total":3}`
	if err := json.Unmarshal([]byte(bad), &p); err == nil {
		t.Error("negative run count should be rejected")
	}
}

func TestProfileJSONRejectsCorrupt(t *testing.T) {
	var p Profile
	if err := json.Unmarshal([]byte(`{"label":"x","pmf_counts":[],"pmf_total":0}`), &p); err == nil {
		t.Error("no bins should be rejected")
	}
	if err := json.Unmarshal([]byte(`{"label":"x","pmf_counts":[1,2],"pmf_total":5}`), &p); err == nil {
		t.Error("mismatched total should be rejected")
	}
	if err := json.Unmarshal([]byte(`{"label":"x","pmf_counts":[-1,4],"pmf_total":3}`), &p); err == nil {
		t.Error("negative count should be rejected")
	}
}

func TestRamp(t *testing.T) {
	if ramp(0, 1, 3) != 0 || ramp(3, 1, 3) != 1 || ramp(2, 1, 3) != 0.5 {
		t.Error("ramp wrong")
	}
	if ramp(10, 1, 3) != 1 || ramp(-10, 1, 3) != 0 {
		t.Error("ramp clamp wrong")
	}
}
