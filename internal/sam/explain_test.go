package sam

import (
	"math/rand/v2"
	"testing"

	"samnet/internal/attack"
	"samnet/internal/obs"
	"samnet/internal/routing/mr"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

func TestDetectorConfigWithDefaults(t *testing.T) {
	eff := DetectorConfig{}.WithDefaults()
	if eff.ZLow != 1.5 || eff.ZHigh != 4 || eff.Beta != 0.1 {
		t.Errorf("defaults not applied: %+v", eff)
	}
	ez := DetectorConfig{ZLow: ExplicitZero}.WithDefaults()
	if ez.ZLow != 0 {
		t.Errorf("ExplicitZero not resolved to 0: %+v", ez)
	}
}

func TestDecisionRecordFields(t *testing.T) {
	d := trainedDetector(t)
	st := Analyze(attackRoutes())
	v := d.Evaluate(st)
	rec := NewDecisionRecord("cluster", v, d.cfg)

	if rec.Profile != "cluster" {
		t.Errorf("profile = %q", rec.Profile)
	}
	if rec.Routes != st.Routes || rec.N != st.N {
		t.Errorf("counts = %d/%d, want %d/%d", rec.Routes, rec.N, st.Routes, st.N)
	}
	if rec.PMax != st.PMax || rec.Phi != st.Phi {
		t.Errorf("statistics not echoed: %+v", rec)
	}
	if rec.ZLow != 1.5 || rec.ZHigh != 4 || rec.TVLow != 0.3 || rec.TVHigh != 0.7 ||
		rec.SuspectLambda != 0.7 || rec.AttackLambda != 0.25 {
		t.Errorf("thresholds = %+v", rec)
	}
	if rec.Suspect != (obs.DecisionLink{A: 100, B: 101}) {
		t.Errorf("suspect = %+v, want the tunnel 100-101", rec.Suspect)
	}
	if rec.Decision != v.Decision.String() || rec.Lambda != v.Lambda {
		t.Errorf("verdict not echoed: %+v", rec)
	}
	if len(rec.Links) != len(st.ByLink) {
		t.Fatalf("frequency table has %d rows, want %d", len(rec.Links), len(st.ByLink))
	}
	// The table must come over most-frequent-first, with the tunnel on top.
	if rec.Links[0] != (obs.DecisionLink{A: 100, B: 101, Count: st.NMax, P: st.PMax}) {
		t.Errorf("top link = %+v", rec.Links[0])
	}
	for i := 1; i < len(rec.Links); i++ {
		if rec.Links[i].Count > rec.Links[i-1].Count {
			t.Fatalf("frequency table not sorted at row %d", i)
		}
	}
}

// TestDecisionRecordLocalizesSimulatedWormhole runs the full stack on a real
// wormhole topology: train on clean MR discoveries over the paper's cluster
// grid, arm a wormhole, rediscover, and check the decision record names the
// tunnel link.
func TestDecisionRecordLocalizesSimulatedWormhole(t *testing.T) {
	const seed = 2005
	net := topology.Cluster(1, 2)
	proto := &mr.Protocol{}

	discover := func(sn *sim.Network, run uint64) Stats {
		src, dst := net.PickPair(rand.New(rand.NewPCG(seed, run)))
		d := proto.Discover(sn, src, dst)
		return Analyze(d.Routes)
	}

	tr := NewTrainer("cluster-1tier", 0)
	for run := uint64(0); run < 15; run++ {
		sn := sim.NewNetwork(net.Topo, sim.Config{Seed: seed + run})
		src, dst := net.PickPair(rand.New(rand.NewPCG(seed, run)))
		d := proto.Discover(sn, src, dst)
		tr.ObserveRoutes(d.Routes)
	}
	prof, err := tr.Profile()
	if err != nil {
		t.Fatal(err)
	}
	det := NewDetector(prof, DetectorConfig{})

	sc := attack.NewScenario(net, 1, attack.Forward)
	defer sc.Teardown()
	tunnel := sc.TunnelLinks()[0]

	flagged, localized := 0, 0
	const runs = 10
	for run := uint64(100); run < 100+runs; run++ {
		sn := sim.NewNetwork(net.Topo, sim.Config{Seed: seed + run})
		sc.Arm(sn)
		st := discover(sn, run)
		v := det.Evaluate(st)
		rec := NewDecisionRecord(prof.Label, v, det.cfg)
		if rec.Decision != Normal.String() {
			flagged++
			if rec.Suspect == (obs.DecisionLink{A: int(tunnel.A), B: int(tunnel.B)}) {
				localized++
			}
		}
	}
	if flagged < runs/2 {
		t.Fatalf("wormhole flagged in only %d/%d runs", flagged, runs)
	}
	if localized*2 < flagged {
		t.Errorf("tunnel %v localized in only %d/%d flagged runs", tunnel, localized, flagged)
	}
}
