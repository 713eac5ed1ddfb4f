package topology

// Graph utilities over a topology's connectivity: BFS distances and the
// connectivity check. All of them treat tunnels as ordinary one-hop links,
// matching how routing sees the network.

// BFSDist returns, for every node, its hop distance from src, or -1 if
// unreachable.
func (t *Topology) BFSDist(src NodeID) []int {
	t.checkID(src)
	dist := make([]int, t.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range t.Neighbors(u) {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// HopDist returns the hop distance between a and b, or -1 if disconnected.
func (t *Topology) HopDist(a, b NodeID) int {
	return t.BFSDist(a)[b]
}

// Connected reports whether every node is reachable from node 0.
// An empty topology is trivially connected.
func (t *Topology) Connected() bool {
	if t.N() == 0 {
		return true
	}
	dist := t.BFSDist(0)
	for _, d := range dist {
		if d == -1 {
			return false
		}
	}
	return true
}
