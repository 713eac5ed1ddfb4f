package cli

import (
	"testing"
	"time"
)

func TestBuildTopologyAllNames(t *testing.T) {
	for _, name := range TopologyNames {
		net, err := BuildTopology(name, 1, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if net.Topo.N() == 0 || !net.Topo.Connected() {
			t.Errorf("%s: bad topology", name)
		}
		if len(net.AttackerPairs) != 2 {
			t.Errorf("%s: want 2 attacker pairs, got %d", name, len(net.AttackerPairs))
		}
	}
}

func TestBuildTopologyUnknown(t *testing.T) {
	if _, err := BuildTopology("torus", 1, 1); err == nil {
		t.Error("unknown topology should error")
	}
}

func TestBuildTopologyTier(t *testing.T) {
	t1, _ := BuildTopology("cluster", 1, 1)
	t2, _ := BuildTopology("cluster", 2, 1)
	if t2.Topo.Radius() <= t1.Topo.Radius() {
		t.Error("tier should widen the radio range")
	}
}

func TestBuildProtocolAllNames(t *testing.T) {
	want := map[string]string{
		"mr": "MR", "smr": "SMR", "dsr": "DSR", "aomdv": "AOMDV", "aodv": "AODV", "mdsr": "MDSR",
	}
	for _, name := range ProtocolNames {
		p, err := BuildProtocol(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != want[name] {
			t.Errorf("%s resolves to %s", name, p.Name())
		}
	}
}

func TestBuildProtocolUnknown(t *testing.T) {
	if _, err := BuildProtocol("ospf"); err == nil {
		t.Error("unknown protocol should error")
	}
}

func TestNewTracerResolvesSize(t *testing.T) {
	if tr := NewTracer(-1, 0); tr != nil {
		t.Errorf("negative size: tracer = %v, want nil (tracing off)", tr)
	}
	if got := NewTracer(0, 0).Cap(); got != 256 {
		t.Errorf("size 0: capacity = %d, want the default 256", got)
	}
	tr := NewTracer(8, time.Second)
	if tr.Cap() != 8 || tr.SlowThreshold() != time.Second {
		t.Errorf("size 8: capacity %d, slow threshold %v", tr.Cap(), tr.SlowThreshold())
	}
}
