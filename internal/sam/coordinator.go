package sam

import (
	"sort"
	"sync"

	"samnet/internal/topology"
)

// Coordinator aggregates attack reports from many agents — the cooperative
// half of the distributed IDS. A node accused by at least Quorum distinct
// reporting agents lands on the blacklist; isolation (removing it from
// routing) is then the network's move. Coordinator is safe for concurrent
// use by agents running in parallel experiment workers.
type Coordinator struct {
	mu sync.Mutex
	// Quorum is the number of distinct accusing agents required (default 1:
	// a single confirmed local detection suffices, as in the paper's
	// "report to security authority" step).
	Quorum   int
	accusers map[topology.NodeID]map[topology.NodeID]bool // suspect -> set of reporters
}

// NewCoordinator builds a coordinator with the given quorum. It panics if
// quorum is below 1: a blacklist that needs no accuser would hold every node.
func NewCoordinator(quorum int) *Coordinator {
	if quorum < 1 {
		panic("sam: Coordinator quorum must be at least 1")
	}
	return &Coordinator{
		Quorum:   quorum,
		accusers: make(map[topology.NodeID]map[topology.NodeID]bool),
	}
}

// Submit records a confirmed report from the given agent. Unconfirmed
// reports are ignored: suspicion alone must not blacklist a node.
func (c *Coordinator) Submit(reporter topology.NodeID, r AttackReport) {
	if !r.Confirmed {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range r.Suspects {
		set := c.accusers[s]
		if set == nil {
			set = make(map[topology.NodeID]bool)
			c.accusers[s] = set
		}
		set[reporter] = true
	}
}

// ResponderFor returns a Responder that submits an agent's reports under its
// node id — the glue between a Pipeline and the Coordinator.
func (c *Coordinator) ResponderFor(reporter topology.NodeID) Responder {
	return ResponderFunc(func(r AttackReport) { c.Submit(reporter, r) })
}

// Blacklist returns the nodes accused by at least Quorum distinct agents,
// in ascending id order.
func (c *Coordinator) Blacklist() []topology.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []topology.NodeID
	for n, set := range c.accusers {
		if len(set) >= c.Quorum {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// BlacklistSet returns the blacklist as a set, convenient for topology
// exclusion.
func (c *Coordinator) BlacklistSet() map[topology.NodeID]bool {
	out := make(map[topology.NodeID]bool)
	for _, n := range c.Blacklist() {
		out[n] = true
	}
	return out
}
