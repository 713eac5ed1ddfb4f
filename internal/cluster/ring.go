// Package cluster is the horizontal scale-out layer over samserve: a
// rendezvous-hash ring assigning profiles to replicas, a replica client with
// health checking and bounded retry, profile sync by shipping snapshot
// records between replicas, and a scatter-gather gateway that proxies the
// serving API by profile placement and splits /v1/train/batch grids across
// the fleet with a deterministic grid-order merge.
//
// SAM's statistical test is per-profile — every profile is trained and
// scored independently — so the serving layer shards cleanly by profile
// name. Placement is a pure function of (profile, replica set): every
// gateway, load generator and anti-entropy pass computes the same owner
// without coordination, and adding or removing a replica moves only the
// profiles whose owner changed (the rendezvous property).
package cluster

import (
	"slices"
	"sort"
)

// Ring is a rendezvous (highest-random-weight) hash ring over replica
// addresses. It is immutable: membership changes build a new Ring, so
// readers never need a lock. The zero value is an empty ring.
type Ring struct {
	replicas []string
}

// NewRing builds a ring over the given replica addresses, dropping empties
// and duplicates. Order does not matter: placement depends only on the set.
func NewRing(replicas []string) *Ring {
	rs := make([]string, 0, len(replicas))
	for _, r := range replicas {
		if r != "" {
			rs = append(rs, r)
		}
	}
	sort.Strings(rs)
	return &Ring{replicas: slices.Compact(rs)}
}

// Replicas returns the ring's members, sorted. The slice is shared; callers
// must not mutate it.
func (r *Ring) Replicas() []string { return r.replicas }

// score is the rendezvous weight of (replica, key): a 64-bit FNV-1a over the
// replica address, a separator, and the key, passed through a splitmix64
// finalizer. FNV alone is too linear for rendezvous hashing — nearby keys
// produce correlated scores across replicas — and the finalizer's avalanche
// restores independence, which is what the balance bound rests on.
func score(replica, key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(replica); i++ {
		h ^= uint64(replica[i])
		h *= prime64
	}
	h ^= 0xff // separator: "ab"+"c" and "a"+"bc" must not collide
	h *= prime64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	// splitmix64 finalizer.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Owner returns the replica owning key — the member with the highest
// rendezvous score, ties broken by address order — or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	best, bestScore := "", uint64(0)
	for _, rep := range r.replicas {
		if s := score(rep, key); best == "" || s > bestScore || (s == bestScore && rep < best) {
			best, bestScore = rep, s
		}
	}
	return best
}

// Rank appends every replica to dst in descending score order for key: the
// owner first, then the failover order for reads and the source order for
// sync pulls. Passing a reused dst[:0] keeps ranking allocation-free.
func (r *Ring) Rank(key string, dst []string) []string {
	type scored struct {
		addr string
		s    uint64
	}
	// Fleets are small (single digits); an insertion sort over a stack
	// array beats sort.Slice and allocates nothing.
	var buf [16]scored
	ranked := buf[:0]
	if len(r.replicas) > len(buf) {
		ranked = make([]scored, 0, len(r.replicas))
	}
	for _, rep := range r.replicas {
		sc := scored{addr: rep, s: score(rep, key)}
		at := len(ranked)
		for at > 0 && (ranked[at-1].s < sc.s || (ranked[at-1].s == sc.s && ranked[at-1].addr > sc.addr)) {
			at--
		}
		ranked = append(ranked, scored{})
		copy(ranked[at+1:], ranked[at:])
		ranked[at] = sc
	}
	for _, sc := range ranked {
		dst = append(dst, sc.addr)
	}
	return dst
}
