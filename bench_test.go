package samnet_test

// The benchmark suite regenerates every table and figure of the paper once
// per iteration, so `go test -bench=.` doubles as a smoke reproduction of
// the whole evaluation; per-op time measures the cost of the corresponding
// experiment. Ablation benchmarks at the bottom exercise the design choices
// DESIGN.md calls out.

import (
	"testing"

	"samnet/internal/attack"
	"samnet/internal/experiment"
	"samnet/internal/routing"
	"samnet/internal/routing/aomdv"
	"samnet/internal/routing/dsr"
	"samnet/internal/routing/mdsr"
	"samnet/internal/routing/mr"
	"samnet/internal/sam"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// benchCfg keeps benchmark iterations cheap but statistically meaningful.
var benchCfg = experiment.Config{Runs: 10, Seed: 2005}

func benchArtifact(b *testing.B, id string) {
	def, err := experiment.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		art := def.Run(benchCfg)
		if len(art.Tables) == 0 || len(art.Tables[0].Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkTable1RoutesAffected(b *testing.B) { benchArtifact(b, "table1") }
func BenchmarkTable2Overhead(b *testing.B)       { benchArtifact(b, "table2") }
func BenchmarkFig5PMF(b *testing.B)              { benchArtifact(b, "fig5") }
func BenchmarkFig6Pmax(b *testing.B)             { benchArtifact(b, "fig6") }
func BenchmarkFig7Phi(b *testing.B)              { benchArtifact(b, "fig7") }
func BenchmarkFig8LongTunnel(b *testing.B)       { benchArtifact(b, "fig8") }
func BenchmarkFig9RandomTopology(b *testing.B)   { benchArtifact(b, "fig9") }
func BenchmarkFig10RandomPmax(b *testing.B)      { benchArtifact(b, "fig10") }
func BenchmarkFig11TierPmax(b *testing.B)        { benchArtifact(b, "fig11") }
func BenchmarkFig12TierPhi(b *testing.B)         { benchArtifact(b, "fig12") }
func BenchmarkFig13ProtocolPmax(b *testing.B)    { benchArtifact(b, "fig13") }
func BenchmarkFig14ProtocolPhi(b *testing.B)     { benchArtifact(b, "fig14") }
func BenchmarkFig15MultiWormhole(b *testing.B)   { benchArtifact(b, "fig15") }
func BenchmarkDetectionPipeline(b *testing.B)    { benchArtifact(b, "detection") }
func BenchmarkLeashComparison(b *testing.B)      { benchArtifact(b, "leash") }
func BenchmarkProtocolSweep(b *testing.B)        { benchArtifact(b, "protocols") }
func BenchmarkRushingAttack(b *testing.B)        { benchArtifact(b, "rushing") }
func BenchmarkChannelLoss(b *testing.B)          { benchArtifact(b, "loss") }
func BenchmarkMobility(b *testing.B)             { benchArtifact(b, "mobility") }
func BenchmarkBlackholeEarlyReply(b *testing.B)  { benchArtifact(b, "blackhole") }
func BenchmarkAdaptiveProfile(b *testing.B)      { benchArtifact(b, "adaptive") }
func BenchmarkROCSweep(b *testing.B)             { benchArtifact(b, "roc") }
func BenchmarkPacketDeliveryRatio(b *testing.B)  { benchArtifact(b, "pdr") }

// BenchmarkSweepTable1 measures the full Table I sweep (four conditions x 10
// runs) serially, so ns/op tracks the discovery hot path itself rather than
// pool scheduling.
func BenchmarkSweepTable1(b *testing.B) {
	def, err := experiment.ByID("table1")
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiment.Config{Runs: 10, Seed: 2005, Workers: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		art := def.Run(cfg)
		if len(art.Tables) == 0 || len(art.Tables[0].Rows) == 0 {
			b.Fatal("table1 produced no rows")
		}
	}
}

// discoverOnce runs one MR discovery on a 1-tier cluster with one wormhole.
func discoverOnce(seed uint64, p routing.Protocol, worms int) *routing.Discovery {
	net := topology.Cluster(1, 2)
	if worms > 0 {
		sc := attack.NewScenario(net, worms, attack.Forward)
		defer sc.Teardown()
	}
	s := sim.NewNetwork(net.Topo, sim.Config{Seed: seed})
	return p.Discover(s, net.SrcPool[0], net.DstPool[len(net.DstPool)-1])
}

// benchDiscovery measures steady-state route discovery — the shape the
// experiment harness runs it in: topology and scenario built once, the
// network Reset and re-armed per run (see sim.Network.Reset).
func benchDiscovery(b *testing.B, p routing.Protocol) {
	net := topology.Cluster(1, 2)
	sc := attack.NewScenario(net, 1, attack.Forward)
	defer sc.Teardown()
	src, dst := net.SrcPool[0], net.DstPool[len(net.DstPool)-1]
	s := sim.NewNetwork(net.Topo, sim.Config{Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset(uint64(i + 1))
		sc.Arm(s)
		d := p.Discover(s, src, dst)
		if len(d.Routes) == 0 {
			b.Fatal("no routes")
		}
	}
}

// BenchmarkDiscoveryMR measures one multi-path route discovery.
func BenchmarkDiscoveryMR(b *testing.B) { benchDiscovery(b, &mr.Protocol{}) }

// BenchmarkDiscoveryDSR measures one DSR route discovery.
func BenchmarkDiscoveryDSR(b *testing.B) { benchDiscovery(b, &dsr.Protocol{}) }

// BenchmarkDiscoveryAOMDV measures one AOMDV route discovery, reply phase
// over the reverse-route tables included.
func BenchmarkDiscoveryAOMDV(b *testing.B) { benchDiscovery(b, &aomdv.Protocol{}) }

// BenchmarkDiscoveryMDSR measures one MDSR route discovery.
func BenchmarkDiscoveryMDSR(b *testing.B) { benchDiscovery(b, &mdsr.Protocol{}) }

// TestDiscoveryAllocs pins the allocations of a warm-network MR and DSR
// discovery in benchDiscovery's shape at a fixed seed. The flood's pooled
// scratch makes the flood itself allocation-free, so the counts are the
// Discovery record, its materialized routes and replies, and arming.
func TestDiscoveryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	net := topology.Cluster(1, 2)
	sc := attack.NewScenario(net, 1, attack.Forward)
	defer sc.Teardown()
	src, dst := net.SrcPool[0], net.DstPool[len(net.DstPool)-1]
	s := sim.NewNetwork(net.Topo, sim.Config{Seed: 1})
	for _, c := range []struct {
		p   routing.Protocol
		max float64
	}{{&mr.Protocol{}, 17}, {&dsr.Protocol{}, 14}} {
		got := testing.AllocsPerRun(100, func() {
			s.Reset(1)
			sc.Arm(s)
			c.p.Discover(s, src, dst)
		})
		if got > c.max {
			t.Errorf("%s discovery allocates %.1f times, want at most %.0f", c.p.Name(), got, c.max)
		}
	}
}

// BenchmarkAnalyze measures SAM's statistical analysis of one route set.
func BenchmarkAnalyze(b *testing.B) {
	d := discoverOnce(7, &mr.Protocol{}, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sam.Analyze(d.Routes)
		if s.N == 0 {
			b.Fatal("no links")
		}
	}
}

// BenchmarkAnalyzeLarge measures Analyze on a route set an order of
// magnitude larger than one discovery's — the service's worst-case request
// shape — by pooling the routes of many discoveries.
func BenchmarkAnalyzeLarge(b *testing.B) {
	var d routing.Discovery
	for seed := uint64(1); seed <= 12; seed++ {
		d.Routes = append(d.Routes, discoverOnce(seed, &mr.Protocol{}, 1).Routes...)
	}
	if len(d.Routes) < 50 {
		b.Fatalf("want a large route set, got %d routes", len(d.Routes))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sam.Analyze(d.Routes)
		if s.N == 0 {
			b.Fatal("no links")
		}
	}
}

// BenchmarkAnalyzeParallel measures Analyze under concurrent callers — the
// batch-detection shape, where every worker shares the scratch pool.
func BenchmarkAnalyzeParallel(b *testing.B) {
	d := discoverOnce(7, &mr.Protocol{}, 1)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s := sam.Analyze(d.Routes)
			if s.N == 0 {
				b.Fatal("no links")
			}
		}
	})
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ---

// BenchmarkAblationDetector compares detector feature sets: pmax-only
// z-score, phi-only, and the combined rule, reporting detection and false-
// alarm rates over the cluster workload.
func BenchmarkAblationDetector(b *testing.B) {
	train := func() *sam.Profile {
		tr := sam.NewTrainer("bench", 0)
		for i := 0; i < 20; i++ {
			d := discoverOnce(uint64(100+i), &mr.Protocol{}, 0)
			tr.ObserveRoutes(d.Routes)
		}
		p, err := tr.Profile()
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	profile := train()
	variants := []struct {
		name string
		cfg  sam.DetectorConfig
	}{
		{"combined", sam.DetectorConfig{}},
		{"pmax-sensitive", sam.DetectorConfig{ZLow: 1, ZHigh: 2.5}},
		{"conservative", sam.DetectorConfig{ZLow: 3, ZHigh: 6}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var detected, falseAlarm int64
			for i := 0; i < b.N; i++ {
				det := sam.NewDetector(profile, v.cfg)
				atk := det.Evaluate(sam.Analyze(discoverOnce(uint64(i+1), &mr.Protocol{}, 1).Routes))
				if atk.Decision != sam.Normal {
					detected++
				}
				norm := det.Evaluate(sam.Analyze(discoverOnce(uint64(i+1), &mr.Protocol{}, 0).Routes))
				if norm.Decision != sam.Normal {
					falseAlarm++
				}
			}
			b.ReportMetric(float64(detected)/float64(b.N), "detect-rate")
			b.ReportMetric(float64(falseAlarm)/float64(b.N), "false-rate")
		})
	}
}

// BenchmarkAblationBeta sweeps the forgetting factor of the adaptive
// profile update and reports how far the adaptive mean drifts over a
// sequence of normal observations.
func BenchmarkAblationBeta(b *testing.B) {
	tr := sam.NewTrainer("bench", 0)
	for i := 0; i < 20; i++ {
		tr.ObserveRoutes(discoverOnce(uint64(100+i), &mr.Protocol{}, 0).Routes)
	}
	profile, err := tr.Profile()
	if err != nil {
		b.Fatal(err)
	}
	for _, beta := range []float64{0.05, 0.1, 0.3} {
		name := "beta" + trimFloat(beta)
		b.Run(name, func(b *testing.B) {
			var drift float64
			for i := 0; i < b.N; i++ {
				det := sam.NewDetector(profile, sam.DetectorConfig{Beta: beta})
				start, _ := det.AdaptiveMeans()
				for j := 0; j < 10; j++ {
					st := sam.Analyze(discoverOnce(uint64(200+10*i+j), &mr.Protocol{}, 0).Routes)
					v := det.Evaluate(st)
					det.Update(st, v.Lambda)
				}
				end, _ := det.AdaptiveMeans()
				if end > start {
					drift += end - start
				} else {
					drift += start - end
				}
			}
			b.ReportMetric(drift/float64(b.N), "pmax-drift")
		})
	}
}

func trimFloat(f float64) string {
	switch f {
	case 0.05:
		return "005"
	case 0.1:
		return "010"
	case 0.3:
		return "030"
	}
	return "x"
}
