package cli

import (
	"encoding/json"
	"strings"
	"testing"

	"samnet/internal/attack"
	"samnet/internal/routing/dsr"
)

// TestResolveRejections pins the resolver's refusals and their texts — the
// service answers them verbatim as 400 bodies.
func TestResolveRejections(t *testing.T) {
	cases := []struct {
		name              string
		topo              string
		tier              int
		protocol          string
		wormholes         int
		behavior, variant string
		want              string
	}{
		{"tier 0", "cluster", 0, "mr", 0, "", "", "tier 0 out of range [1,4]"},
		{"tier 5", "cluster", 5, "mr", 0, "", "", "tier 5 out of range [1,4]"},
		{"unknown topology", "torus", 1, "mr", 0, "", "", `unknown topology "torus"`},
		{"unknown protocol", "cluster", 1, "ospf", 0, "", "", `unknown protocol "ospf"`},
		{"unknown behavior", "cluster", 1, "mr", 1, "teleport", "", `unknown behavior "teleport"`},
		{"too many wormholes", "cluster", 1, "mr", 3, "", "", "wormholes 3 out of range [0,2]"},
		{"negative wormholes", "uniform6x6", 1, "mr", -1, "", "", "wormholes -1 out of range [0,2]"},
		{"unknown variant", "cluster", 1, "mr", 1, "", "nope", `attack: unknown variant "nope"`},
		{"forge without hook", "cluster", 1, "aomdv", 1, "", "forge", `attack "forge" requires the mr or dsr protocol`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := Resolve(tc.topo, tc.tier, tc.protocol)
			if err == nil {
				_, err = sc.Armed(tc.wormholes, tc.behavior, tc.variant)
			}
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
				t.Fatalf("error = %v, want prefix %q", err, tc.want)
			}
		})
	}
}

func TestResolveLabels(t *testing.T) {
	sc, err := Resolve("uniform6x6", 2, "smr")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Label != "uniform6x6-2tier/SMR" || sc.ProfileName() != "uniform6x6-2tier-SMR" {
		t.Errorf("label %q, profile name %q", sc.Label, sc.ProfileName())
	}
	armed, err := sc.Armed(2, "forge", "")
	if err != nil {
		t.Fatal(err)
	}
	if armed.Label != sc.Label || armed.Wormholes != 2 || armed.Behavior != attack.Forward || !armed.Forge {
		t.Errorf("armed = %+v", armed)
	}
}

// TestCellSharesCleanGrid: arming a scenario keeps its label, so an armed
// cell has the clean cell's placement, pair and simulation seed — the
// tunnels are the only difference.
func TestCellSharesCleanGrid(t *testing.T) {
	clean, err := Resolve("random", 1, "mr")
	if err != nil {
		t.Fatal(err)
	}
	armed, err := clean.Armed(1, "forward", "")
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		c, a := clean.Cell(9, run), armed.Cell(9, run)
		if c.Attack != nil || a.Attack == nil || len(a.Attack.Tunnels) != 1 {
			t.Fatalf("run %d: clean attack %v, armed attack %v", run, c.Attack, a.Attack)
		}
		if c.Src != a.Src || c.Dst != a.Dst {
			t.Errorf("run %d: pair %d-%d clean, %d-%d armed", run, c.Src, c.Dst, a.Src, a.Dst)
		}
		if c.Net.Topo.Pos(0) != a.Net.Topo.Pos(0) {
			t.Errorf("run %d: placements differ", run)
		}
	}
	if clean.Cell(9, 0).Net.Topo.Pos(0) == clean.Cell(9, 1).Net.Topo.Pos(0) {
		t.Error("runs 0 and 1 share a random placement")
	}
	if clean.Cell(9, 1).Net.Topo.Pos(0) == clean.Cell(10, 0).Net.Topo.Pos(0) {
		t.Error("seed 9 run 1 reuses seed 10 run 0's placement")
	}
}

// TestCellPairAfterAttack: the chain variant removes its colluders from the
// endpoint pools, so no cell may pick one as source or destination.
func TestCellPairAfterAttack(t *testing.T) {
	for _, topo := range []string{"cluster", "uniform6x6", "random"} {
		sc, err := Resolve(topo, 2, "mr")
		if err != nil {
			t.Fatal(err)
		}
		if sc, err = sc.Armed(1, "", "chain"); err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 100; run++ {
			c := sc.Cell(2005, run)
			bad := c.Attack.MaliciousNodes()
			if bad[c.Src] || bad[c.Dst] {
				t.Fatalf("%s run %d: pair %d-%d includes a colluder %v", topo, run, c.Src, c.Dst, bad)
			}
		}
	}
}

// TestCellForgeHookIsPerCell: the forge variant wires its hook into a copy of
// the protocol, never into the scenario's shared one.
func TestCellForgeHookIsPerCell(t *testing.T) {
	sc, err := Resolve("cluster", 1, "dsr")
	if err != nil {
		t.Fatal(err)
	}
	if sc, err = sc.Armed(1, "forward", "forge"); err != nil {
		t.Fatal(err)
	}
	c := sc.Cell(1, 0)
	if sc.Proto.(*dsr.Protocol).Forge != nil || c.Proto.(*dsr.Protocol).Forge == nil {
		t.Error("forge hook not set on the cell's copy only")
	}
}

// TestTrainParallelInvariant: the fold's profiles are byte-identical at any
// parallelism.
func TestTrainParallelInvariant(t *testing.T) {
	var scs []Scenario
	for _, topo := range []string{"cluster", "random"} {
		sc, err := Resolve(topo, 1, "mr")
		if err != nil {
			t.Fatal(err)
		}
		scs = append(scs, sc)
	}
	profiles := func(parallel int) string {
		var out []byte
		for _, tr := range Train(scs, 3, 5, parallel, nil) {
			p, err := tr.Profile()
			if err != nil {
				t.Fatal(err)
			}
			blob, _ := json.Marshal(p)
			out = append(out, blob...)
		}
		return string(out)
	}
	if serial, par := profiles(1), profiles(4); serial != par {
		t.Error("profiles differ between -parallel 1 and 4")
	}
}
