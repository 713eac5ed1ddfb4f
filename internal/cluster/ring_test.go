package cluster

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("profile-%d", i)
	}
	return out
}

func replicas(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://10.0.0.%d:8080", i+1)
	}
	return out
}

// TestRingBalance is the placement-balance property: at 1k profiles the
// loaded-most replica carries at most 1.8x the loaded-least one. A perfect
// split of 1000 keys over 4 replicas is 250 each; rendezvous hashing with an
// avalanche finalizer keeps the spread well inside the bound (binomial
// stddev ~14), and the bound failing means the score function regressed.
func TestRingBalance(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("%dreplicas", n), func(t *testing.T) {
			ring := NewRing(replicas(n))
			counts := make(map[string]int, n)
			for _, k := range keys(1000) {
				counts[ring.Owner(k)] = counts[ring.Owner(k)] + 1
			}
			if len(counts) != n {
				t.Fatalf("only %d of %d replicas own any key", len(counts), n)
			}
			min, max := 1000, 0
			for _, c := range counts {
				if c < min {
					min = c
				}
				if c > max {
					max = c
				}
			}
			if float64(max) > 1.8*float64(min) {
				t.Fatalf("placement imbalance: max %d > 1.8 x min %d (%v)", max, min, counts)
			}
		})
	}
}

// TestRingMinimalMovementOnJoin is the rendezvous property: when a replica
// joins, the only keys that move are keys the new replica now owns, and
// about 1/(n+1) of them — never a reshuffle among the survivors.
func TestRingMinimalMovementOnJoin(t *testing.T) {
	before := NewRing(replicas(4))
	joined := "http://10.0.0.99:8080"
	after := NewRing(append(replicas(4), joined))

	ks := keys(1000)
	moved := 0
	for _, k := range ks {
		was, is := before.Owner(k), after.Owner(k)
		if was == is {
			continue
		}
		moved++
		if is != joined {
			t.Fatalf("key %q moved %s -> %s, but only moves onto the joining replica are allowed", k, was, is)
		}
	}
	// Expected movement is 1000/5 = 200; allow a wide band around it but
	// reject both a reshuffle (far too many) and a dead member (none).
	if moved == 0 || moved > 2*len(ks)/5 {
		t.Fatalf("join moved %d/%d keys, want roughly %d", moved, len(ks), len(ks)/5)
	}
}

// TestRingMinimalMovementOnLeave: when a replica leaves, exactly its keys
// move (to survivors) and nothing else does.
func TestRingMinimalMovementOnLeave(t *testing.T) {
	all := replicas(4)
	before := NewRing(all)
	gone := all[1]
	after := NewRing(append(append([]string{}, all[:1]...), all[2:]...))

	for _, k := range keys(1000) {
		was, is := before.Owner(k), after.Owner(k)
		if was == gone {
			if is == gone || is == "" {
				t.Fatalf("key %q still owned by departed replica", k)
			}
			continue
		}
		if was != is {
			t.Fatalf("key %q moved %s -> %s although its owner never left", k, was, is)
		}
	}
}

// TestRingRank pins the rank contract: the full membership, owner first, no
// duplicates, deterministic.
func TestRingRank(t *testing.T) {
	ring := NewRing(replicas(5))
	for _, k := range keys(50) {
		rank := ring.Rank(k, nil)
		if len(rank) != 5 {
			t.Fatalf("rank(%q) has %d entries, want 5", k, len(rank))
		}
		if rank[0] != ring.Owner(k) {
			t.Fatalf("rank(%q)[0] = %s, owner = %s", k, rank[0], ring.Owner(k))
		}
		seen := make(map[string]bool, 5)
		for _, addr := range rank {
			if seen[addr] {
				t.Fatalf("rank(%q) lists %s twice", k, addr)
			}
			seen[addr] = true
		}
		again := ring.Rank(k, nil)
		for i := range rank {
			if rank[i] != again[i] {
				t.Fatalf("rank(%q) not deterministic: %v vs %v", k, rank, again)
			}
		}
	}
}

// TestRingEdgeCases: empty ring, single member, dedup/empty-string inputs.
func TestRingEdgeCases(t *testing.T) {
	if got := NewRing(nil).Owner("x"); got != "" {
		t.Fatalf("empty ring owner = %q, want empty", got)
	}
	one := NewRing([]string{"a", "", "a"})
	if len(one.Replicas()) != 1 || one.Owner("anything") != "a" {
		t.Fatalf("dedup ring = %v", one.Replicas())
	}
}

// TestRankHealthyPromotesHealthy pins the fleet's routing order: a replica
// marked down drops behind every healthy one, the healthy ones keep their
// rendezvous order, and the down one is still listed last so a caller has
// somewhere to try. The rank is appended after whatever dst already holds.
func TestRankHealthyPromotesHealthy(t *testing.T) {
	f, err := NewFleet(replicas(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys(20) {
		rank := f.ring.Rank(k, nil)
		f.MarkDown(rank[0], errors.New("down"))
		f.MarkDown(rank[2], errors.New("down"))
		want := []string{"prefix", rank[1], rank[3], rank[0], rank[2]}
		if got := f.RankHealthy(k, []string{"prefix"}); !slices.Equal(got, want) {
			t.Fatalf("%s: RankHealthy = %v, want %v (rank %v)", k, got, want, rank)
		}
		if got := f.Owner(k); got != rank[1] {
			t.Fatalf("%s: Owner = %s, want the first healthy replica %s", k, got, rank[1])
		}
		for _, addr := range rank {
			f.states[addr].healthy = true
		}
	}
}
