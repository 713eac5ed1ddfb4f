package knob

import "testing"

type duration float64

func TestResolve(t *testing.T) {
	if got := Resolve(0, 3); got != 3 {
		t.Errorf("Resolve(0, 3) = %d, want the default", got)
	}
	if got := Resolve(ExplicitZero, 3); got != 0 {
		t.Errorf("Resolve(ExplicitZero, 3) = %d, want a true zero", got)
	}
	if got := Resolve(-7, 3); got != 0 {
		t.Errorf("Resolve(-7, 3) = %d, want any negative to mean zero", got)
	}
	if got := Resolve(5, 3); got != 5 {
		t.Errorf("Resolve(5, 3) = %d, want the set value", got)
	}
	if got := Resolve(duration(ExplicitZero), 1.05); got != 0 {
		t.Errorf("Resolve on a named float type = %v, want 0", got)
	}
	if got := Resolve(0.25, 0.75); got != 0.25 {
		t.Errorf("Resolve(0.25, 0.75) = %v", got)
	}
}
