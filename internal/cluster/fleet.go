package cluster

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"samnet/internal/service"
)

// Fleet is a fixed replica membership with live health state. Placement is
// computed over the full membership (so it is stable and every participant
// agrees), while routing prefers healthy replicas: the effective owner of a
// profile is the first *healthy* replica in its rendezvous rank order, which
// degrades placement gracefully when a replica is down and snaps back when
// it returns.
type Fleet struct {
	ring   *Ring
	client *Client

	mu     sync.RWMutex
	states map[string]*replicaState

	stop, done chan struct{}
	stopOnce   sync.Once
}

// replicaState is one replica's live health view.
type replicaState struct {
	healthy     bool
	lastChecked time.Time
	lastErr     string
	health      service.HealthzResponse
}

// ReplicaStatus is one replica's health as reported by Statuses (and served
// by the gateway's /v1/cluster).
type ReplicaStatus struct {
	Addr        string                  `json:"addr"`
	Healthy     bool                    `json:"healthy"`
	LastChecked time.Time               `json:"last_checked"`
	LastError   string                  `json:"last_error,omitempty"`
	Health      service.HealthzResponse `json:"health"`
}

// NewFleet builds a fleet over the given replica base URLs (scheme://host:port,
// no trailing slash required — one is trimmed).
func NewFleet(addrs []string, client *Client) (*Fleet, error) {
	cleaned := make([]string, 0, len(addrs))
	for _, a := range addrs {
		a = strings.TrimSuffix(strings.TrimSpace(a), "/")
		if a != "" {
			cleaned = append(cleaned, a)
		}
	}
	if len(cleaned) == 0 {
		return nil, fmt.Errorf("cluster: fleet needs at least one replica address")
	}
	if client == nil {
		client = &Client{}
	}
	f := &Fleet{ring: NewRing(cleaned), client: client, states: make(map[string]*replicaState)}
	for _, a := range f.ring.Replicas() {
		// Optimistic start: replicas are presumed healthy until a check says
		// otherwise, so a gateway can route before its first sweep finishes.
		f.states[a] = &replicaState{healthy: true}
	}
	return f, nil
}

// Replicas returns the fleet's members, sorted.
func (f *Fleet) Replicas() []string { return f.ring.Replicas() }

// Start launches the background health checker at the given interval.
func (f *Fleet) Start(interval time.Duration) {
	if interval <= 0 || f.stop != nil {
		return
	}
	f.stop, f.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(f.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-f.stop:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), interval)
				f.CheckNow(ctx)
				cancel()
			}
		}
	}()
}

// Close stops the background health checker.
func (f *Fleet) Close() {
	if f.stop == nil {
		return
	}
	f.stopOnce.Do(func() {
		close(f.stop)
		<-f.done
	})
}

// CheckNow sweeps every replica's GET /healthz once, in parallel, updating
// the fleet's health view. A 200 with a parseable body marks the replica
// healthy and records its readiness signals; anything else marks it down.
func (f *Fleet) CheckNow(ctx context.Context) {
	var wg sync.WaitGroup
	for _, addr := range f.ring.Replicas() {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			var h service.HealthzResponse
			err := f.client.getJSON(ctx, addr+"/healthz", &h)
			now := time.Now()
			f.mu.Lock()
			st := f.states[addr]
			st.lastChecked = now
			if err != nil {
				st.healthy, st.lastErr = false, err.Error()
			} else {
				st.healthy, st.lastErr, st.health = true, "", h
			}
			f.mu.Unlock()
		}(addr)
	}
	wg.Wait()
}

// MarkDown records a passive failure observation (a dial error during
// routing), so the very next request already avoids the dead replica instead
// of waiting for the health sweep to notice.
func (f *Fleet) MarkDown(addr string, err error) {
	f.mu.Lock()
	if st := f.states[addr]; st != nil {
		st.healthy = false
		st.lastErr = err.Error()
		st.lastChecked = time.Now()
	}
	f.mu.Unlock()
}

// Healthy reports whether the replica is currently believed healthy.
func (f *Fleet) Healthy(addr string) bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	st := f.states[addr]
	return st != nil && st.healthy
}

// HealthyCount returns how many replicas are currently believed healthy.
func (f *Fleet) HealthyCount() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n := 0
	for _, st := range f.states {
		if st.healthy {
			n++
		}
	}
	return n
}

// RankHealthy appends key's replicas to dst in routing order: the rendezvous
// rank with healthy replicas promoted ahead of unhealthy ones (each group
// keeping its rank order). The full membership is always returned, so a
// caller still has somewhere to try when every replica looks down.
func (f *Fleet) RankHealthy(key string, dst []string) []string {
	rank := f.ring.Rank(key, dst)
	f.mu.RLock()
	defer f.mu.RUnlock()
	// Stable partition: healthy (0) before unhealthy (1).
	down := func(addr string) int {
		if st := f.states[addr]; st != nil && st.healthy {
			return 0
		}
		return 1
	}
	slices.SortStableFunc(rank[len(rank)-len(f.ring.Replicas()):], func(a, b string) int { return down(a) - down(b) })
	return rank
}

// Owner returns key's effective owner: the first healthy replica in rank
// order (or the rank head when none is healthy).
func (f *Fleet) Owner(key string) string { return f.RankHealthy(key, nil)[0] }

// Statuses snapshots every replica's health, sorted by address.
func (f *Fleet) Statuses() []ReplicaStatus {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]ReplicaStatus, 0, len(f.states))
	for _, addr := range f.ring.Replicas() {
		st := f.states[addr]
		out = append(out, ReplicaStatus{
			Addr:        addr,
			Healthy:     st.healthy,
			LastChecked: st.lastChecked,
			LastError:   st.lastErr,
			Health:      st.health,
		})
	}
	return out
}
