package routing

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"samnet/internal/topology"
)

// refSharedLinks and refSelectDisjoint are the previous set-based
// implementations, kept as the reference the allocation-free ones must
// match exactly.
func refSharedLinks(r, s Route) int {
	set := make(map[topology.Link]bool, len(r))
	for _, l := range r.Links() {
		set[l] = true
	}
	n := 0
	for _, l := range s.Links() {
		if set[l] {
			n++
		}
	}
	return n
}

func refSelectDisjoint(candidates []Route, max int) []Route {
	if max <= 0 || len(candidates) == 0 {
		return nil
	}
	picked := []Route{candidates[0]}
	used := map[int]bool{0: true}
	for len(picked) < max && len(picked) < len(candidates) {
		best, bestShared, bestHops := -1, int(^uint(0)>>1), int(^uint(0)>>1)
		for i, c := range candidates {
			if used[i] {
				continue
			}
			shared := 0
			for _, p := range picked {
				shared += refSharedLinks(c, p)
			}
			if shared < bestShared || (shared == bestShared && c.Hops() < bestHops) {
				best, bestShared, bestHops = i, shared, c.Hops()
			}
		}
		if best == -1 {
			break
		}
		used[best] = true
		picked = append(picked, candidates[best])
	}
	return picked
}

func TestSharedLinksMatchesReference(t *testing.T) {
	cases := []struct{ r, s Route }{
		{nil, nil},
		{Route{3}, Route{3}},
		{Route{0, 1, 2, 3}, Route{5, 1, 2, 3}},
		{Route{0, 1, 2, 3}, Route{3, 2, 1, 0}},    // reversed direction
		{Route{0, 1, 0, 1}, Route{1, 0}},          // r repeats a link
		{Route{1, 0}, Route{0, 1, 0, 1}},          // s repeats a link
		{Route{0, 1, 2, 1, 2}, Route{2, 1, 2, 1}}, // both repeat
		{Route{0, 1, 2}, Route{7, 8}},
	}
	rng := rand.New(rand.NewPCG(15, 1))
	for i := 0; i < 500; i++ {
		cases = append(cases, struct{ r, s Route }{randomRoute(rng), randomRoute(rng)})
	}
	for _, c := range cases {
		if got, want := c.r.SharedLinks(c.s), refSharedLinks(c.r, c.s); got != want {
			t.Fatalf("%v.SharedLinks(%v) = %d, reference %d", c.r, c.s, got, want)
		}
	}
	r, s := Route{0, 1, 2, 3, 4}, Route{9, 1, 2, 3, 8}
	if a := testing.AllocsPerRun(100, func() { _ = r.SharedLinks(s) }); a != 0 {
		t.Errorf("SharedLinks allocates %.1f times per call, want 0", a)
	}
}

func TestSelectDisjointMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 2))
	for i := 0; i < 400; i++ {
		cands := make([]Route, rng.IntN(9))
		for j := range cands {
			cands[j] = randomRoute(rng)
		}
		max := rng.IntN(6) - 1
		got, want := SelectDisjoint(cands, max), refSelectDisjoint(cands, max)
		if fmt.Sprint(got) != fmt.Sprint(want) || (got == nil) != (want == nil) {
			t.Fatalf("SelectDisjoint(%v, %d) = %v, reference %v", cands, max, got, want)
		}
	}
}

// randomRoute draws a short route over few node IDs, so shared, reversed
// and repeated links are common.
func randomRoute(rng *rand.Rand) Route {
	r := make(Route, rng.IntN(6))
	for i := range r {
		r[i] = topology.NodeID(rng.IntN(6))
	}
	return r
}
