package sam

import (
	"testing"
)

func trainedPMFDetector(t *testing.T) *PMFDetector {
	t.Helper()
	tr := NewTrainer("pmf-test", 0)
	for v := 0; v < 12; v++ {
		tr.ObserveRoutes(normalRoutes(v))
	}
	prof, err := tr.Profile()
	if err != nil {
		t.Fatal(err)
	}
	return NewPMFDetector(prof, 0, 0)
}

func TestPMFDetectorNormal(t *testing.T) {
	d := trainedPMFDetector(t)
	v := d.Evaluate(Analyze(normalRoutes(99)))
	if v.Attacked {
		t.Errorf("normal routes flagged: %+v", v)
	}
}

func TestPMFDetectorFlagsWormhole(t *testing.T) {
	d := trainedPMFDetector(t)
	v := d.Evaluate(Analyze(attackRoutes()))
	if !v.Attacked {
		t.Fatalf("attack not flagged: %+v", v)
	}
	if !v.ByTail {
		t.Error("the isolated high-frequency link should trip the tail test")
	}
	if v.SuspectLink.A != 100 || v.SuspectLink.B != 101 {
		t.Errorf("suspect = %v", v.SuspectLink)
	}
}

func TestPMFDetectorEmpty(t *testing.T) {
	d := trainedPMFDetector(t)
	if v := d.Evaluate(Analyze(nil)); v.Attacked {
		t.Error("empty route set flagged")
	}
}

func TestPMFDetectorNilProfilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil profile should panic")
		}
	}()
	NewPMFDetector(nil, 0, 0)
}

func TestPMFDetectorThresholdsRespected(t *testing.T) {
	tr := NewTrainer("x", 0)
	tr.ObserveRoutes(normalRoutes(0))
	prof, _ := tr.Profile()
	// Absurdly lax thresholds: nothing should trigger.
	lax := NewPMFDetector(prof, 2.0, -1)
	if v := lax.Evaluate(Analyze(attackRoutes())); v.Attacked {
		t.Errorf("lax thresholds still flagged: %+v", v)
	}
	// Hair-trigger TV threshold with the tail test disabled: the attack's
	// distribution shift must trip TV on its own.
	strict := NewPMFDetector(prof, 1e-9, -1)
	if v := strict.Evaluate(Analyze(attackRoutes())); !v.ByTV {
		t.Errorf("strict TV threshold did not trip: %+v", v)
	}
}

// TestPMFDetectorExplicitZero pins the ExplicitZero convention on the
// constructor: a plain zero selects the default, ExplicitZero a true zero —
// previously an explicit zero was silently coerced to the default, making
// "condemn on any TV distance" and "disable the tail test" unreachable.
func TestPMFDetectorExplicitZero(t *testing.T) {
	tr := NewTrainer("pmf-explicit-zero", 0)
	for v := 0; v < 12; v++ {
		tr.ObserveRoutes(normalRoutes(v))
	}
	prof, err := tr.Profile()
	if err != nil {
		t.Fatal(err)
	}

	def := NewPMFDetector(prof, 0, 0)
	if def.TVThreshold != 0.5 || def.TailProb != 0.02 {
		t.Errorf("zero must select defaults, got tv=%v tail=%v", def.TVThreshold, def.TailProb)
	}

	zero := NewPMFDetector(prof, ExplicitZero, ExplicitZero)
	if zero.TVThreshold != 0 || zero.TailProb != 0 {
		t.Fatalf("ExplicitZero must resolve to 0, got tv=%v tail=%v", zero.TVThreshold, zero.TailProb)
	}
	v := zero.Evaluate(Analyze(attackRoutes()))
	if v.ByTail {
		t.Error("TailProb 0 must disable the tail test (no mass is below 0)")
	}
	if !v.ByTV {
		t.Error("TVThreshold 0 must condemn any nonzero TV distance")
	}
}
