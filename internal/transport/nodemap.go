package transport

// NodeMap is the addressing surface for the networked substrate: it maps
// endpoint names (vertices, store shards, roots) to the node — the OS
// process — that hosts them. simnet and livenet ignore placement (one
// address space); internal/netnet consults the NodeMap on every Send/Call
// to decide local dispatch vs. a TCP hop, and chcd workers use it to dial
// their peers.
//
// Endpoints are matched by segment-aware longest prefix: a NodeSpec entry
// "v0" claims "v0", "v0.i1" and "v0.i1.q" but NOT "v01" — so a vertex
// entry covers all its instance endpoints without enumerating them.
// Endpoints matched by no entry hash deterministically across nodes, so
// arbitrary test endpoints (the conformance suite invents names freely)
// still resolve without configuration.

import (
	"hash/fnv"
	"sync"
)

// NodeSpec names one node: a process reachable at Addr (host:port) that
// hosts every endpoint matching one of its Endpoints prefixes.
type NodeSpec struct {
	Name      string   `json:"name"`
	Addr      string   `json:"addr"`
	Endpoints []string `json:"endpoints"`
}

// NodeMap resolves endpoint names to node names. It is safe for
// concurrent use; Reassign re-homes endpoints at failover time while
// traffic is in flight.
type NodeMap struct {
	mu    sync.RWMutex
	nodes []NodeSpec        // declaration order = hash-fallback order
	exact map[string]string // endpoint prefix -> node name
	addr  map[string]string // node name -> addr
}

// NewNodeMap builds a NodeMap from node specs. Later specs win on
// conflicting prefixes (ordering is deterministic, so every worker
// loading the same spec list derives the same placement).
func NewNodeMap(nodes []NodeSpec) *NodeMap {
	m := &NodeMap{
		exact: make(map[string]string),
		addr:  make(map[string]string),
	}
	for _, n := range nodes {
		m.nodes = append(m.nodes, n)
		m.addr[n.Name] = n.Addr
		for _, ep := range n.Endpoints {
			m.exact[ep] = n.Name
		}
	}
	return m
}

// Nodes returns the node specs in declaration order.
func (m *NodeMap) Nodes() []NodeSpec {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]NodeSpec, len(m.nodes))
	copy(out, m.nodes)
	return out
}

// Addr returns the dial address for a node ("" if unknown).
func (m *NodeMap) Addr(node string) string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.addr[node]
}

// SetAddr updates a node's dial address (loopback clusters bind :0 and
// learn the real port after listen).
func (m *NodeMap) SetAddr(node, addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.addr[node] = addr
	for i := range m.nodes {
		if m.nodes[i].Name == node {
			m.nodes[i].Addr = addr
		}
	}
}

// prefixMatch reports whether ep falls under prefix at a segment
// boundary: prefix=="v0" matches "v0" and "v0.i1" but not "v01".
func prefixMatch(ep, prefix string) bool {
	if len(ep) < len(prefix) || ep[:len(prefix)] != prefix {
		return false
	}
	return len(ep) == len(prefix) || ep[len(prefix)] == '.'
}

// NodeOf resolves an endpoint to its hosting node. Longest matching
// prefix wins ("v0.i1" beats "v0"); unmapped endpoints fall back to a
// deterministic hash across the declared nodes so every process agrees
// on placement without exhaustive configuration.
func (m *NodeMap) NodeOf(ep string) string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	best, bestLen := "", -1
	for prefix, node := range m.exact {
		if len(prefix) > bestLen && prefixMatch(ep, prefix) {
			best, bestLen = node, len(prefix)
		}
	}
	if bestLen >= 0 {
		return best
	}
	if len(m.nodes) == 0 {
		return ""
	}
	h := fnv.New32a()
	h.Write([]byte(ep))
	return m.nodes[int(h.Sum32())%len(m.nodes)].Name
}

// Reassign re-homes an endpoint (and, by prefix, its children) to node.
// Failover uses this to place a replacement instance on a surviving node
// before the controller swaps routing.
func (m *NodeMap) Reassign(ep, node string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.exact[ep] = node
}
