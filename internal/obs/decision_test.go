package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestDecisionRingWraparound(t *testing.T) {
	r := NewDecisionRing(4)
	for i := 1; i <= 10; i++ {
		r.Record(Decision{Profile: fmt.Sprintf("p%d", i), PMax: float64(i)})
	}
	if got := r.Recorded(); got != 10 {
		t.Fatalf("Recorded = %d, want 10", got)
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d records, want 4", len(snap))
	}
	for i, d := range snap {
		wantSeq := uint64(7 + i) // oldest retained record is seq 7
		if d.Seq != wantSeq || d.PMax != float64(wantSeq) {
			t.Errorf("snapshot[%d] = seq %d pmax %v, want seq %d", i, d.Seq, d.PMax, wantSeq)
		}
	}
}

// TestDecisionRingDisabledAndNil: a nil ring is the one disabled ring.
func TestDecisionRingDisabledAndNil(t *testing.T) {
	var nilRing *DecisionRing
	if nilRing.Enabled() {
		t.Error("nil ring must report capture off")
	}
	nilRing.Record(Decision{}) // must not panic
	if got := nilRing.Snapshot(); got != nil {
		t.Errorf("nil ring snapshot = %v, want nil", got)
	}
	if nilRing.Recorded() != 0 || nilRing.Cap() != 0 {
		t.Error("nil ring must report nothing recorded and no capacity")
	}
}

func TestNewDecisionRingRejectsZeroSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("size 0 should panic")
		}
	}()
	NewDecisionRing(0)
}

// TestDecisionRingConcurrent runs writers against snapshotting readers; under
// -race this pins the lock-free publication protocol.
func TestDecisionRingConcurrent(t *testing.T) {
	r := NewDecisionRing(8)
	const writers, per = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Record(Decision{Profile: "p", Routes: w, N: i})
			}
		}(w)
	}
	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 200; i++ {
				snap := r.Snapshot()
				for j := 1; j < len(snap); j++ {
					if snap[j].Seq <= snap[j-1].Seq {
						t.Error("snapshot not strictly ordered by seq")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	readers.Wait()
	if got := r.Recorded(); got != writers*per {
		t.Fatalf("Recorded = %d, want %d", got, writers*per)
	}
}

func TestDecisionJSONRoundTrip(t *testing.T) {
	d := Decision{
		Seq: 3, Profile: "cluster", Routes: 5, N: 20,
		Links: []DecisionLink{{A: 1, B: 2, Count: 5, P: 0.25}, {A: 2, B: 3, Count: 3, P: 0.15}},
		PMax:  0.25, Phi: 0.4, TV: 0.31, ZPMax: 5.2, ZPhi: 3.3,
		ZLow: 1.5, ZHigh: 4, TVLow: 0.3, TVHigh: 0.7,
		SuspectLambda: 0.7, AttackLambda: 0.25,
		Suspect: DecisionLink{A: 1, B: 2}, Lambda: 0.1, Decision: "attacked",
	}
	blob, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var back Decision
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, back) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, d)
	}
	for _, key := range []string{`"p_max"`, `"z_pmax"`, `"suspect"`, `"lambda"`, `"links"`} {
		if !bytes.Contains(blob, []byte(key)) {
			t.Errorf("encoded decision missing %s: %s", key, blob)
		}
	}
}
