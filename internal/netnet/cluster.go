package netnet

// A Cluster runs N netnet nodes inside one OS process: every node gets a
// real 127.0.0.1 listener and its own TCP hub, but all of them share a
// single livenet execution core. The sharing is what makes the loopback
// cluster a conformance-grade transport: processes, timers, signals,
// crash state and the link model behave exactly as on livenet (one
// authority, no cross-process clock or state divergence), while every
// cross-node message still round-trips through EncodePayload, a real
// socket, and DecodePayload — so codec or framing bugs fail loudly under
// the same tests livenet passes. The conformance suite, the in-process
// multi-node chain tests and chcperf's net_fork workload all run on this.

import (
	"fmt"
	"time"

	"chc/internal/livenet"
	"chc/internal/transport"
)

// ClusterConfig tunes a loopback cluster.
type ClusterConfig struct {
	// Seed drives the shared core's loss/jitter/Intn draws.
	Seed int64
	// DefaultLink applies to links without an explicit SetLink.
	DefaultLink transport.LinkConfig
	// Nodes declares the cluster's nodes and endpoint placement. Addresses
	// are ignored: every node listens on 127.0.0.1:0 and the real port is
	// written back into the map.
	Nodes []transport.NodeSpec
}

// Cluster is an in-process multi-node transport. It implements
// transport.Transport and transport.BurstSender; sends and calls route
// through the SOURCE endpoint's node, so traffic between endpoints placed
// on different nodes crosses a real socket. Everything else is the
// embedded shared core's.
type Cluster struct {
	*livenet.Net
	nodes *transport.NodeMap
	nets  map[string]*Net
	order []string
}

// NewCluster builds a loopback cluster. At least one node is required;
// with two or more, endpoints spread across nodes (explicitly or by the
// NodeMap's hash fallback) exercise the socket path.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("netnet: cluster needs at least one node")
	}
	inner := livenet.New(livenet.Config{Seed: cfg.Seed, DefaultLink: cfg.DefaultLink})
	nm := transport.NewNodeMap(cfg.Nodes)
	c := &Cluster{Net: inner, nodes: nm, nets: make(map[string]*Net)}
	for _, spec := range cfg.Nodes {
		n, err := newNode(inner, spec.Name, nm, "127.0.0.1:0")
		if err != nil {
			c.Shutdown()
			return nil, err
		}
		c.nets[spec.Name] = n
		c.order = append(c.order, spec.Name)
	}
	return c, nil
}

// Nodes returns the cluster's addressing map.
func (c *Cluster) Nodes() *transport.NodeMap { return c.nodes }

// Stats sums cross-node traffic over all nodes.
func (c *Cluster) Stats() NetStats {
	var s NetStats
	for _, n := range c.nets {
		ns := n.Stats()
		s.RemoteMsgs += ns.RemoteMsgs
		s.RemoteCalls += ns.RemoteCalls
		s.RemoteBytes += ns.RemoteBytes
	}
	return s
}

// netFor picks the node a message originates from (the From endpoint's
// home); unknown sources use the first node.
func (c *Cluster) netFor(from string) *Net {
	if n, ok := c.nets[c.nodes.NodeOf(from)]; ok {
		return n
	}
	return c.nets[c.order[0]]
}

// Send routes msg via its source endpoint's node.
func (c *Cluster) Send(msg transport.Message) { c.netFor(msg.From).Send(msg) }

// SendBurst splits the burst into consecutive same-source-node runs, each
// shipped through its node's burst path (order within the burst holds).
func (c *Cluster) SendBurst(msgs []transport.Message) {
	for i := 0; i < len(msgs); {
		n := c.netFor(msgs[i].From)
		j := i + 1
		for j < len(msgs) && c.netFor(msgs[j].From) == n {
			j++
		}
		n.SendBurst(msgs[i:j])
		i = j
	}
}

// Call performs an RPC from the source endpoint's node.
func (c *Cluster) Call(p transport.Proc, from, to string, payload any, size int, timeout time.Duration) (any, bool) {
	return c.netFor(from).Call(p, from, to, payload, size, timeout)
}

// Crash fail-stops an endpoint cluster-wide: every node flushes its
// in-flight frames first, then the shared core drops the endpoint.
func (c *Cluster) Crash(name string) {
	for _, node := range c.order {
		c.nets[node].flush()
	}
	c.Net.Crash(name)
}

// Restart brings a crashed endpoint back with an empty inbox.
func (c *Cluster) Restart(name string) {
	for _, node := range c.order {
		c.nets[node].flush()
	}
	c.Net.Restart(name)
}

// Shutdown tears down every hub, then the shared core.
func (c *Cluster) Shutdown() {
	for _, node := range c.order {
		c.nets[node].closeHub()
	}
	c.Net.Shutdown()
}
