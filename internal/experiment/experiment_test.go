package experiment

import "testing"

// fastCfg keeps test runs quick; 4 runs still exercise the full machinery.
var fastCfg = Config{Runs: 4, Seed: 99, Workers: 2}

func TestDeriveSeedDistinguishesInputs(t *testing.T) {
	a := deriveSeed(1, "x", 0)
	if deriveSeed(1, "x", 0) != a {
		t.Error("seed not deterministic")
	}
	for _, other := range []uint64{
		deriveSeed(2, "x", 0),
		deriveSeed(1, "y", 0),
		deriveSeed(1, "x", 1),
	} {
		if other == a {
			t.Error("distinct inputs collided")
		}
	}
}

func TestPairRNGIsConditionIndependent(t *testing.T) {
	a := pairRNG(7, 3)
	b := pairRNG(7, 3)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("pair stream not reproducible")
		}
	}
}

func TestRunConditionDeterministicAcrossWorkerCounts(t *testing.T) {
	cond := clusterCond(1, 1, mrProtocol, "MR")
	one := RunCondition(Config{Runs: 5, Seed: 3, Workers: 1}, cond)
	many := RunCondition(Config{Runs: 5, Seed: 3, Workers: 8}, cond)
	for i := range one {
		if one[i].Stats.PMax != many[i].Stats.PMax || one[i].Overhead != many[i].Overhead {
			t.Fatalf("run %d differs across worker counts", i)
		}
	}
}

func TestRunConditionPairsSharedAcrossConditions(t *testing.T) {
	mr := RunCondition(fastCfg, clusterCond(1, 0, mrProtocol, "MR"))
	dsr := RunCondition(fastCfg, clusterCond(1, 1, dsrProtocol, "DSR"))
	for i := range mr {
		if mr[i].Src != dsr[i].Src || mr[i].Dst != dsr[i].Dst {
			t.Fatalf("run %d: pairs differ across conditions (%d->%d vs %d->%d)",
				i, mr[i].Src, mr[i].Dst, dsr[i].Src, dsr[i].Dst)
		}
	}
}

func TestAttackConditionPopulatesTunnels(t *testing.T) {
	res := RunCondition(fastCfg, clusterCond(1, 1, mrProtocol, "MR"))
	for _, r := range res {
		if len(r.TunnelLinks) != 1 {
			t.Fatalf("tunnel links = %v", r.TunnelLinks)
		}
		if r.Affected != 1 {
			t.Errorf("cluster affected = %v, want 1", r.Affected)
		}
	}
}

func TestNormalConditionHasNoTunnels(t *testing.T) {
	res := RunCondition(fastCfg, clusterCond(1, 0, mrProtocol, "MR"))
	for _, r := range res {
		if len(r.TunnelLinks) != 0 || r.Affected != 0 {
			t.Fatalf("normal run has attack residue: %+v", r)
		}
	}
}

func TestRegistryIDsUniqueAndResolvable(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range Registry {
		if seen[d.ID] {
			t.Errorf("duplicate id %q", d.ID)
		}
		seen[d.ID] = true
		got, err := ByID(d.ID)
		if err != nil || got.ID != d.ID {
			t.Errorf("ByID(%q) failed: %v", d.ID, err)
		}
		if d.Kind != "table" && d.Kind != "figure" && d.Kind != "extension" {
			t.Errorf("%s has unknown kind %q", d.ID, d.Kind)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id should error")
	}
}

func TestEveryExperimentProducesRows(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep is not short")
	}
	for _, d := range Registry {
		d := d
		t.Run(d.ID, func(t *testing.T) {
			art := d.Run(fastCfg)
			if art.ID != d.ID {
				t.Errorf("artifact id %q != %q", art.ID, d.ID)
			}
			if len(art.Tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tab := range art.Tables {
				if len(tab.Rows) == 0 {
					t.Errorf("table %q has no rows", tab.Title)
				}
				if tab.Markdown() == "" || tab.CSV() == "" {
					t.Error("render failed")
				}
			}
		})
	}
}

func TestTable1ClusterIsFullyAffected(t *testing.T) {
	results, headers := runColumns(fastCfg, tableCols())
	for i, col := range results[:2] { // Cluster MR, Cluster DSR
		if got := rate(col, func(r RunResult) bool { return r.Affected == 1 }); got != 1 {
			t.Errorf("%s: %.2f of runs fully affected, want every run", headers[i+1], got)
		}
	}
}

func TestTable2RatioAboveTwo(t *testing.T) {
	results, _ := runColumns(fastCfg, tableCols())
	for i, topo := range []string{"cluster", "uniform"} {
		mr, dsr := results[2*i], results[2*i+1]
		if r := ratio(sum(mr, overheadOf), sum(dsr, overheadOf)); r < 2 || r >= 4 {
			t.Errorf("%s MR/DSR overhead ratio %.4f outside the 'more than twice' regime [2, 4)", topo, r)
		}
	}
}

func TestFig6AttackAboveNormalInCluster(t *testing.T) {
	results, _ := runColumns(fastCfg, oneTierCols())
	normal, attack := mean(results[0], pmaxOf), mean(results[1], pmaxOf)
	if attack <= normal {
		t.Errorf("cluster attack mean p_max %.4f not above normal %.4f", attack, normal)
	}
}

// BenchmarkRunConditionWorkers measures the worker-pool scaling of the
// experiment executor; run with -cpu 1,2,4 to see the sweep parallelize.
func BenchmarkRunConditionWorkers(b *testing.B) {
	cond := clusterCond(1, 1, mrProtocol, "MR")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RunCondition(Config{Runs: 16, Seed: uint64(i + 1)}, cond)
	}
}
