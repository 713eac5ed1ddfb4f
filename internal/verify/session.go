package verify

import (
	"samnet/internal/routing"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// attempt tracks one outstanding probe: the route walked, the nonce the
// proof must cover, and where the current send attempt stands.
type attempt struct {
	route    routing.Route
	nonce    uint64
	sends    int      // send attempts so far (1-based)
	deadline sim.Time // expiry of the current attempt
	expired  bool     // current attempt's timer has fired
	resolved bool     // a terminal evidence record exists
	proofOK  bool     // a valid proof has been accepted
}

// session is the probe state machine for one suspect pair. It is driven by
// two inputs — onTimeout (the source's retry timer) and onProof (an answer
// arriving back at the source) — and accumulates typed Evidence. The
// machine is deliberately free of simulator references so table-driven
// tests can walk every transition directly.
type session struct {
	cfg      Config
	pair     topology.Link
	attempts map[uint64]*attempt
	evidence []Evidence
}

func newSession(cfg Config, pair topology.Link) *session {
	return &session{cfg: cfg, pair: pair, attempts: make(map[uint64]*attempt)}
}

// start registers a freshly sent probe. deadline is the expiry of this first
// attempt.
func (s *session) start(probeID, nonce uint64, route routing.Route, deadline sim.Time) {
	s.attempts[probeID] = &attempt{route: route, nonce: nonce, sends: 1, deadline: deadline}
}

// add records one evidence record against the session's pair.
func (s *session) add(kind Kind, probeID uint64, a *attempt, at sim.Time) {
	s.evidence = append(s.evidence, Evidence{
		Kind:    kind,
		Pair:    s.pair,
		Route:   a.route,
		ProbeID: probeID,
		Attempt: a.sends,
		At:      at,
	})
}

// onTimeout handles the retry timer of probeID firing at virtual time at.
// It reports whether the probe should be resent: true while the retry
// budget lasts, false once the missing ACK has become evidence (or the
// probe already resolved some other way). On a resend the caller must
// re-transmit the challenge and re-arm the timer; onTimeout has already
// advanced the attempt count and deadline.
func (s *session) onTimeout(probeID uint64, at sim.Time) bool {
	a := s.attempts[probeID]
	if a == nil || a.resolved {
		return false
	}
	if a.sends <= s.cfg.Retries {
		a.sends++
		a.deadline = at + s.cfg.Timeout
		a.expired = false
		return true
	}
	a.expired = true
	a.resolved = true
	s.add(AckMissing, probeID, a, at)
	return false
}

// onProof handles a proof arriving back at the source at virtual time at.
// Unknown probe ids are ignored (a stale answer from a previous session).
func (s *session) onProof(probeID uint64, proof []byte, at sim.Time) {
	a := s.attempts[probeID]
	if a == nil {
		return
	}
	if !VerifyProof(s.cfg.Key, probeID, a.nonce, a.route, proof) {
		// A fabricated answer is terminal: whoever sent it does not hold
		// the key, and no later packet can un-forge it.
		if !a.resolved {
			a.resolved = true
			s.add(ProofInvalid, probeID, a, at)
		}
		return
	}
	if a.proofOK {
		s.add(AckDuplicate, probeID, a, at)
		return
	}
	a.proofOK = true
	if a.expired || at > a.deadline {
		// Valid but after expiry — including after AckMissing already fired;
		// both records stand (the pair stalled payload past the deadline).
		s.add(AckLate, probeID, a, at)
	} else {
		s.add(AckValid, probeID, a, at)
	}
	a.resolved = true
}

// judge folds the session's evidence into the pair verdict.
func (s *session) judge() Verdict {
	return Judge(s.pair, s.evidence, len(s.attempts))
}
