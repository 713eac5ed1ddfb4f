// Package verify implements steps 2 and 3 of the paper's intrusion detection
// procedure. Step 1 (package sam) statistically localizes a suspect node
// pair; this package confirms or refutes the accusation with an HMAC
// challenge–response probe over the simulated network, folds the typed
// evidence into a per-pair likelihood verdict, and maintains the isolation
// list that feeds condemned attackers back into route discovery
// (routing.FloodConfig.Avoid), closing the detect→probe→isolate→re-route
// loop.
//
// The probe protocol: the source sends a Challenge carrying a fresh nonce
// along a discovered route that traverses the suspect pair. The destination
// answers with a Proof — an HMAC over the probe id, nonce and route under a
// key the attackers do not hold — walked back along the reverse route. A
// wormhole that drops payload destroys the challenge (missing ACK); one that
// fabricates answers cannot forge the MAC (invalid proof); one that forwards
// faithfully exonerates the pair. Timeouts ride the simulator's zero-alloc
// event heap (sim.Engine.ScheduleTimer) with bounded retries.
package verify

import (
	"samnet/internal/knob"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// ExplicitZero configures a Config field to an effective value of zero. A
// literal 0 is the "use the default" sentinel, so fields that are
// meaningfully zero — Timeout: 0 expires probes immediately, Retries: 0
// disables resends, MaxProbes: 0 sends no probes at all — take this (or any
// negative value) instead, mirroring sam.DetectorConfig's convention.
const ExplicitZero = knob.ExplicitZero

// condemnThreshold is the likelihood at or above which a probed pair is
// condemned.
const condemnThreshold = 0.75

// DefaultKey is the probe HMAC key when Config.Key is empty. Any key works —
// what matters is that the simulated attackers do not hold it, which is why
// forged proofs fail verification.
var DefaultKey = []byte("samnet-verify-v1")

// Config tunes the probe engine. The zero value selects the defaults.
type Config struct {
	// Timeout is how long (virtual time) the source waits for a probe's
	// proof before declaring the attempt expired (default 64; ExplicitZero
	// for an immediately-expiring probe).
	Timeout sim.Time
	// Retries is how many times an expired probe is resent before the
	// missing ACK becomes evidence (default 1; ExplicitZero for none).
	Retries int
	// MaxProbes caps how many routes through the suspect pair are probed
	// (default 3; ExplicitZero disables probing entirely).
	MaxProbes int
	// Key is the shared HMAC key honest nodes prove knowledge of (default
	// DefaultKey).
	Key []byte
	// Forgers marks nodes that intercept challenges and answer with
	// fabricated proofs instead of relaying — the Byzantine reply-forgery
	// adversary the proof MAC exists to defeat. Simulation-side only.
	Forgers map[topology.NodeID]bool
}

// WithDefaults returns c with zero-valued fields resolved to defaults and
// ExplicitZero fields resolved to true zeros.
func (c Config) WithDefaults() Config {
	c.Timeout = knob.Resolve(c.Timeout, 64)
	c.Retries = knob.Resolve(c.Retries, 1)
	c.MaxProbes = knob.Resolve(c.MaxProbes, 3)
	if len(c.Key) == 0 {
		c.Key = DefaultKey
	}
	return c
}
