package routing

import (
	"math/rand/v2"
	"testing"

	"samnet/internal/topology"
)

// walkContains is the parent walk the arena's bitset replaces: whether the
// path ending at ref traverses id.
func walkContains(a *pathArena, ref int32, id topology.NodeID) bool {
	for i := ref; i >= 0; i = a.parent[i] {
		if a.node[i] == id {
			return true
		}
	}
	return false
}

// TestPathArenaContainsMatchesWalk grows random forests over 130 nodes, so
// each entry's path set spans three bitset words, and requires the bitset
// answer to equal the parent walk for every entry and node. The arena is
// reused across forests, as a pooled discovery reuses it.
func TestPathArenaContainsMatchesWalk(t *testing.T) {
	const n = 130
	rng := rand.New(rand.NewPCG(28, 3))
	var a pathArena
	for forest := 0; forest < 20; forest++ {
		a.reset(n)
		if a.words != 3 {
			t.Fatalf("%d nodes use %d bitset words, want 3", n, a.words)
		}
		for e := 0; e < 300; e++ {
			parent := int32(-1)
			if e > 0 && rng.IntN(8) != 0 {
				parent = int32(rng.IntN(e))
			}
			a.push(parent, topology.NodeID(rng.IntN(n)))
		}
		for ref := range int32(len(a.node)) {
			for id := range topology.NodeID(n) {
				if got, want := a.contains(ref, id), walkContains(&a, ref, id); got != want {
					t.Fatalf("forest %d: contains(%d, %d) = %v, parent walk %v", forest, ref, id, got, want)
				}
			}
		}
	}
}
