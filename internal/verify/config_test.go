package verify

import (
	"bytes"
	"testing"
)

// TestConfigDefaults pins the zero-value → default mapping.
func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Timeout != 64 {
		t.Errorf("Timeout = %v, want 64", c.Timeout)
	}
	if c.Retries != 1 {
		t.Errorf("Retries = %d, want 1", c.Retries)
	}
	if c.MaxProbes != 3 {
		t.Errorf("MaxProbes = %d, want 3", c.MaxProbes)
	}
	if !bytes.Equal(c.Key, DefaultKey) {
		t.Errorf("Key = %q, want DefaultKey", c.Key)
	}
}

// TestConfigExplicitZero pins the ExplicitZero contract: every field with a
// meaningful zero resolves to a true zero, not its default — the same
// convention as sam.DetectorConfig and sim.Config.
func TestConfigExplicitZero(t *testing.T) {
	c := Config{
		Timeout:   ExplicitZero,
		Retries:   ExplicitZero,
		MaxProbes: ExplicitZero,
	}.WithDefaults()
	if c.Timeout != 0 {
		t.Errorf("Timeout = %v, want 0", c.Timeout)
	}
	if c.Retries != 0 {
		t.Errorf("Retries = %d, want 0", c.Retries)
	}
	if c.MaxProbes != 0 {
		t.Errorf("MaxProbes = %d, want 0", c.MaxProbes)
	}
}

// TestConfigExplicitValuesKept pins that genuine values pass through.
func TestConfigExplicitValuesKept(t *testing.T) {
	c := Config{Timeout: 10, Retries: 4, MaxProbes: 7, Key: []byte("x")}.WithDefaults()
	if c.Timeout != 10 || c.Retries != 4 || c.MaxProbes != 7 || string(c.Key) != "x" {
		t.Fatalf("config mangled: %+v", c)
	}
}
