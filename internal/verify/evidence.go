package verify

import (
	"fmt"

	"samnet/internal/routing"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// Kind classifies one piece of probe evidence.
type Kind int

const (
	// AckValid: the destination's proof came back in time and verified —
	// exculpatory; payload flows through the suspect pair.
	AckValid Kind = iota
	// AckMissing: no proof arrived within the timeout across all retries —
	// the signature of a payload-dropping wormhole.
	AckMissing
	// AckLate: a valid proof arrived, but only after the probe had expired —
	// weak incrimination (tunnel congestion, or an attacker stalling).
	AckLate
	// ProofInvalid: an answer arrived whose MAC does not verify — someone on
	// the route fabricated a proof without the key.
	ProofInvalid
	// AckDuplicate: a second proof for an already-answered probe — replay or
	// duplication on the path, weakly incriminating.
	AckDuplicate
	// PairIsolated: the pair was already on the isolation list; the probe
	// was refused. Administrative, carries no likelihood weight.
	PairIsolated
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case AckValid:
		return "ack-valid"
	case AckMissing:
		return "ack-missing"
	case AckLate:
		return "ack-late"
	case ProofInvalid:
		return "proof-invalid"
	case AckDuplicate:
		return "ack-duplicate"
	case PairIsolated:
		return "pair-isolated"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// weights returns the (incriminating, exculpatory) mass of one evidence
// kind. A missing ACK and an invalid proof are the protocol's two hard
// contradictions; lateness and duplication corroborate weakly; a valid
// in-time proof is the one exculpatory outcome.
func (k Kind) weights() (inc, exc float64) {
	switch k {
	case AckValid:
		return 0, 1
	case AckMissing:
		return 1, 0
	case ProofInvalid:
		return 1, 0
	case AckLate:
		return 0.5, 0
	case AckDuplicate:
		return 0.25, 0
	}
	return 0, 0 // PairIsolated and unknown kinds carry no weight
}

// Evidence is one typed probe observation against a suspect pair.
type Evidence struct {
	Kind    Kind
	Pair    topology.Link
	Route   routing.Route
	ProbeID uint64
	// Attempt is the 1-based send attempt the evidence refers to.
	Attempt int
	// At is the virtual time the evidence was recorded.
	At sim.Time
}

// Verdict is the outcome of probing one suspect pair.
type Verdict struct {
	Pair topology.Link
	// Likelihood is the fraction of evidence mass that incriminates the
	// pair: 1 = every probe contradicted, 0 = every probe exonerated,
	// 0.5 = no weighted evidence either way.
	Likelihood float64
	// Condemned reports whether the evidence clears the condemnation
	// threshold — the pair goes on the isolation list.
	Condemned bool
	// Probes is how many challenge routes were walked.
	Probes int
	// Evidence is every record folded into the likelihood, in order.
	Evidence []Evidence
}

// Judge folds evidence into a Verdict, condemning the pair at a likelihood
// of condemnThreshold or more. With no weighted evidence the likelihood is
// the 0.5 prior and nothing is condemned: an unprobed pair is unproven, not
// innocent.
func Judge(pair topology.Link, evidence []Evidence, probes int) Verdict {
	var inc, exc float64
	for _, e := range evidence {
		i, x := e.Kind.weights()
		inc += i
		exc += x
	}
	v := Verdict{Pair: pair, Likelihood: 0.5, Probes: probes, Evidence: evidence}
	if inc+exc > 0 {
		v.Likelihood = inc / (inc + exc)
		v.Condemned = v.Likelihood >= condemnThreshold
	}
	return v
}
