package verify

import (
	"testing"

	"samnet/internal/routing"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// sessionEvent drives one transition of the probe state machine under test.
type sessionEvent struct {
	timeout bool // else: a proof arrives
	at      sim.Time
	proof   func(key []byte, id, nonce uint64, r routing.Route) []byte
}

func validProof(key []byte, id, nonce uint64, r routing.Route) []byte {
	return ComputeProof(key, id, nonce, r)
}

func forgedProof(key []byte, id, nonce uint64, r routing.Route) []byte {
	return make([]byte, ProofSize)
}

func truncatedProof(key []byte, id, nonce uint64, r routing.Route) []byte {
	return ComputeProof(key, id, nonce, r)[:ProofSize/2]
}

// TestSessionStateMachine walks every probe outcome the protocol
// distinguishes and asserts the exact evidence sequence each produces.
func TestSessionStateMachine(t *testing.T) {
	route := routing.Route{0, 1, 2, 3}
	pair := topology.MkLink(1, 2)
	const probeID, nonce = 7, 0xabcdef

	cases := []struct {
		name    string
		retries int // Config.Retries (0 = default 1, ExplicitZero = none)
		events  []sessionEvent
		want    []Kind
		// wantAttempts pins Evidence.Attempt per record when non-nil.
		wantAttempts []int
	}{
		{
			name:    "lost ack",
			retries: ExplicitZero,
			events:  []sessionEvent{{timeout: true, at: 64}},
			want:    []Kind{AckMissing},
		},
		{
			name:    "late ack after timeout",
			retries: ExplicitZero,
			events: []sessionEvent{
				{timeout: true, at: 64},
				{at: 90, proof: validProof},
			},
			want: []Kind{AckMissing, AckLate},
		},
		{
			name:    "forged proof",
			retries: ExplicitZero,
			events:  []sessionEvent{{at: 8, proof: forgedProof}},
			want:    []Kind{ProofInvalid},
		},
		{
			name:    "truncated proof",
			retries: ExplicitZero,
			events:  []sessionEvent{{at: 8, proof: truncatedProof}},
			want:    []Kind{ProofInvalid},
		},
		{
			name:    "duplicate ack",
			retries: ExplicitZero,
			events: []sessionEvent{
				{at: 8, proof: validProof},
				{at: 9, proof: validProof},
			},
			want: []Kind{AckValid, AckDuplicate},
		},
		{
			name:    "in-time ack",
			retries: ExplicitZero,
			events:  []sessionEvent{{at: 8, proof: validProof}},
			want:    []Kind{AckValid},
		},
		{
			name:    "retry then success",
			retries: 1,
			events: []sessionEvent{
				{timeout: true, at: 64}, // resend, no evidence
				{at: 70, proof: validProof},
			},
			want:         []Kind{AckValid},
			wantAttempts: []int{2},
		},
		{
			name:    "retries exhausted",
			retries: 1,
			events: []sessionEvent{
				{timeout: true, at: 64},
				{timeout: true, at: 128},
			},
			want:         []Kind{AckMissing},
			wantAttempts: []int{2},
		},
		{
			name:    "forged then timeout stays terminal",
			retries: ExplicitZero,
			events: []sessionEvent{
				{at: 8, proof: forgedProof},
				{timeout: true, at: 64},
			},
			want: []Kind{ProofInvalid},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Retries: tc.retries}.WithDefaults()
			ses := newSession(cfg, pair)
			ses.start(probeID, nonce, route, cfg.Timeout)
			for _, ev := range tc.events {
				if ev.timeout {
					ses.onTimeout(probeID, ev.at)
					continue
				}
				ses.onProof(probeID, ev.proof(cfg.Key, probeID, nonce, route), ev.at)
			}
			if len(ses.evidence) != len(tc.want) {
				t.Fatalf("evidence = %v, want kinds %v", ses.evidence, tc.want)
			}
			for i, e := range ses.evidence {
				if e.Kind != tc.want[i] {
					t.Errorf("evidence[%d].Kind = %v, want %v", i, e.Kind, tc.want[i])
				}
				if e.Pair != pair {
					t.Errorf("evidence[%d].Pair = %v, want %v", i, e.Pair, pair)
				}
				if tc.wantAttempts != nil && e.Attempt != tc.wantAttempts[i] {
					t.Errorf("evidence[%d].Attempt = %d, want %d", i, e.Attempt, tc.wantAttempts[i])
				}
			}
		})
	}
}

// TestSessionRetrySchedule pins onTimeout's resend contract: true while the
// retry budget lasts (advancing attempt and deadline), false at exhaustion.
func TestSessionRetrySchedule(t *testing.T) {
	cfg := Config{Retries: 2}.WithDefaults()
	ses := newSession(cfg, topology.MkLink(1, 2))
	ses.start(1, 42, routing.Route{0, 1, 2}, cfg.Timeout)

	for i := 0; i < 2; i++ {
		if !ses.onTimeout(1, sim.Time(64*(i+1))) {
			t.Fatalf("timeout %d: want resend", i+1)
		}
		if len(ses.evidence) != 0 {
			t.Fatalf("timeout %d produced evidence %v before exhaustion", i+1, ses.evidence)
		}
	}
	if ses.onTimeout(1, 192) {
		t.Fatal("third timeout: want no resend")
	}
	if len(ses.evidence) != 1 || ses.evidence[0].Kind != AckMissing {
		t.Fatalf("evidence = %v, want one AckMissing", ses.evidence)
	}
	if got := ses.attempts[1].sends; got != 3 {
		t.Fatalf("sends = %d, want 3", got)
	}
}

// TestSessionIgnoresUnknownProbe pins that stale proofs (an id this session
// never issued) are dropped without evidence.
func TestSessionIgnoresUnknownProbe(t *testing.T) {
	cfg := Config{}.WithDefaults()
	ses := newSession(cfg, topology.MkLink(1, 2))
	ses.start(1, 42, routing.Route{0, 1, 2}, cfg.Timeout)
	ses.onProof(999, make([]byte, ProofSize), 8)
	if len(ses.evidence) != 0 {
		t.Fatalf("unknown probe produced evidence %v", ses.evidence)
	}
	if ses.onTimeout(999, 64) {
		t.Fatal("unknown probe timeout wants resend")
	}
}

// TestJudge pins the likelihood fold: evidence mass ratios, the 0.5 prior,
// and the condemnation threshold edge.
func TestJudge(t *testing.T) {
	pair := topology.MkLink(3, 9)
	mk := func(kinds ...Kind) []Evidence {
		out := make([]Evidence, len(kinds))
		for i, k := range kinds {
			out[i] = Evidence{Kind: k, Pair: pair}
		}
		return out
	}
	cases := []struct {
		name     string
		evidence []Evidence
		wantL    float64
		wantC    bool
	}{
		{"no evidence", nil, 0.5, false},
		{"only administrative", mk(PairIsolated), 0.5, false},
		{"all missing", mk(AckMissing, AckMissing, AckMissing), 1, true},
		{"all valid", mk(AckValid, AckValid), 0, false},
		{"mixed below threshold", mk(AckMissing, AckValid, AckValid), 1.0 / 3, false},
		{"at threshold", mk(AckMissing, AckMissing, AckMissing, AckValid), 0.75, true},
		{"late and duplicate corroborate", mk(AckLate, AckDuplicate), 1, true},
		{"late against valid", mk(AckLate, AckValid), 1.0 / 3, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := Judge(pair, tc.evidence, len(tc.evidence))
			if v.Likelihood != tc.wantL {
				t.Errorf("Likelihood = %v, want %v", v.Likelihood, tc.wantL)
			}
			if v.Condemned != tc.wantC {
				t.Errorf("Condemned = %v, want %v", v.Condemned, tc.wantC)
			}
			if v.Pair != pair {
				t.Errorf("Pair = %v, want %v", v.Pair, pair)
			}
		})
	}
}
