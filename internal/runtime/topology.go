package runtime

import (
	"errors"
	"fmt"

	"chc/internal/packet"
)

// This file generalizes the chain's wiring from a single linear order into
// a directed acyclic policy graph (the paper's deployment model: "NF chains
// to realize custom policies", where different traffic classes traverse
// different NF subsets). A TopologySpec names one ordered vertex path per
// traffic class; paths may share prefixes and suffixes, so forks and
// rejoins fall out of the per-class successor tables rather than being
// modeled explicitly. With ChainConfig.Topology nil the chain collapses to
// exactly one class whose path is the declaration order — byte-identical
// to the historical linear wiring.

// PathSpec routes one traffic class through an ordered subset of the
// chain's on-path vertices (named by VertexSpec.Name), root to sink.
type PathSpec struct {
	Class    string   `json:"class"`
	Vertices []string `json:"vertices"`
}

// TopologySpec declares the policy DAG.
type TopologySpec struct {
	// Classify maps an ingress packet to a traffic-class name; the root
	// evaluates it once per packet and stamps the class into the CHC shim
	// (packet.Meta.Class), so every fork downstream routes without
	// re-classifying. Nil uses ClassifyProto. A name matching no PathSpec
	// falls back to Paths[0], the default path.
	Classify func(*packet.Packet) string
	Paths    []PathSpec
}

// ClassifyProto is the default fork classifier: "tcp", "udp" or "other" by
// IP protocol.
func ClassifyProto(pkt *packet.Packet) string {
	switch pkt.Proto {
	case packet.ProtoTCP:
		return "tcp"
	case packet.ProtoUDP:
		return "udp"
	default:
		return "other"
	}
}

// Classes returns the traffic-class names in class-index order. Linear
// chains report the single implicit class "all".
func (c *Chain) Classes() []string { return c.classNames }

// ClassOf returns the class index the root would assign pkt.
func (c *Chain) ClassOf(pkt *packet.Packet) uint8 {
	if c.classify == nil {
		return 0
	}
	if idx, ok := c.classIdx[c.classify(pkt)]; ok {
		return idx
	}
	return 0
}

// PathFor returns the ordered on-path vertex sequence for a class index.
func (c *Chain) PathFor(class uint8) []*Vertex {
	if int(class) >= len(c.classPaths) {
		return nil
	}
	return c.classPaths[class]
}

// VertexByName locates a vertex by its spec name.
func (c *Chain) VertexByName(name string) *Vertex {
	for _, v := range c.Vertices {
		if v.Spec.Name == name {
			return v
		}
	}
	return nil
}

// OnClass reports whether the vertex lies on the class's path. Off-path
// vertices inherit their tap host's membership (they see copies of
// whatever traffic passes the host).
func (v *Vertex) OnClass(class uint8) bool {
	return int(class) < len(v.onClass) && v.onClass[class]
}

// classThrough picks a traffic class whose path reaches v (the lowest
// index; 0 when none does). Replay markers are stamped with it so they
// trail the replayed branch traffic into the clone's vertex.
func (c *Chain) classThrough(v *Vertex) uint8 {
	for ci := range c.classPaths {
		if v.OnClass(uint8(ci)) {
			return uint8(ci)
		}
	}
	return 0
}

// downstreamOf reports whether b lies strictly after a on class ci's path
// (replay routing: does a forwarded packet still travel toward b?).
func (c *Chain) downstreamOf(ci uint8, a, b *Vertex) bool {
	if int(ci) >= len(c.classPaths) {
		return false
	}
	ai, bi := -1, -1
	for idx, v := range c.classPaths[ci] {
		if v == a {
			ai = idx
		}
		if v == b {
			bi = idx
		}
	}
	return ai >= 0 && bi > ai
}

// wireTopology wires every component's successors (the root's in
// Chain.entry, each vertex's in its own) according to the configured
// policy DAG, or the declaration order when no TopologySpec is given, and
// attaches off-path vertices to the preceding on-path vertex.
func (c *Chain) wireTopology() {
	if t := c.cfg.Topology; t == nil {
		c.classNames = []string{"all"}
		c.classIdx = map[string]uint8{"all": 0}
		c.classPaths = [][]*Vertex{c.OnPath()}
		c.classify = nil
	} else {
		c.buildDAG(t)
	}

	nclass := len(c.classPaths)
	c.entry.next = make([]*Vertex, nclass)
	c.Root.InjectedByClass = make([]uint64, nclass)
	c.Root.DeletedByClass = make([]uint64, nclass)
	for _, v := range c.Vertices {
		v.next = make([]*Vertex, nclass)
		v.onClass = make([]bool, nclass)
	}
	for ci, path := range c.classPaths {
		if len(path) == 0 {
			continue
		}
		c.entry.next[ci] = path[0]
		for i, v := range path {
			v.onClass[ci] = true
			if i+1 < len(path) {
				v.next[ci] = path[i+1]
			}
		}
	}
	// Off-path taps attach by declaration order regardless of topology: a
	// tap observes whatever traffic passes its host, so its class
	// membership is the host's (a root-attached tap sees every class).
	host := &c.entry
	var hostOn []bool
	for _, v := range c.Vertices {
		if !v.Spec.OffPath {
			host, hostOn = &v.successors, v.onClass
			continue
		}
		host.taps = append(host.taps, v)
		for ci := range v.onClass {
			v.onClass[ci] = hostOn == nil || hostOn[ci]
		}
	}
}

// Validate checks the policy DAG against the chain's vertex specs: one to
// 256 paths with distinct classes, each path non-empty and naming known
// on-path vertices at most once, every on-path vertex on some path (a
// vertex in no path receives nothing, and a failover on it would wait for
// replay traffic that can never arrive), and no cycle across the paths'
// union edge set (class A ordering v1 before v2 while class B orders v2
// before v1: duplicate suppression and replay assume one global partial
// order over vertices). A name resolves to its first vertex, as
// VertexByName does.
func (t *TopologySpec) Validate(vertices []VertexSpec) error {
	if len(t.Paths) == 0 {
		return errors.New("runtime: TopologySpec needs at least one path")
	}
	if len(t.Paths) > 256 {
		return errors.New("runtime: more than 256 traffic classes")
	}
	first := make(map[string]int, len(vertices))
	for i := len(vertices) - 1; i >= 0; i-- {
		first[vertices[i].Name] = i
	}
	classes := make(map[string]bool, len(t.Paths))
	// onPath[i] is 1 + the index of the last path through vertex i.
	onPath := make([]int, len(vertices))
	succ := make([][]int, len(vertices))
	for pi, ps := range t.Paths {
		if classes[ps.Class] {
			return fmt.Errorf("runtime: duplicate class %q in topology", ps.Class)
		}
		classes[ps.Class] = true
		if len(ps.Vertices) == 0 {
			return fmt.Errorf("runtime: class %q has an empty path", ps.Class)
		}
		prev := -1
		for _, name := range ps.Vertices {
			i, ok := first[name]
			switch {
			case !ok:
				return fmt.Errorf("runtime: class %q names unknown vertex %q", ps.Class, name)
			case vertices[i].OffPath:
				return fmt.Errorf("runtime: class %q routes through off-path vertex %q", ps.Class, name)
			case onPath[i] == pi+1:
				return fmt.Errorf("runtime: class %q visits vertex %q twice", ps.Class, name)
			}
			onPath[i] = pi + 1
			if prev >= 0 {
				succ[prev] = append(succ[prev], i)
			}
			prev = i
		}
	}
	for i, v := range vertices {
		if !v.OffPath && onPath[i] == 0 {
			return fmt.Errorf("runtime: vertex %q is on-path but appears in no topology path", v.Name)
		}
	}
	const (
		visiting = 1
		done     = 2
	)
	state := make([]int, len(vertices))
	var visit func(i int) error
	visit = func(i int) error {
		switch state[i] {
		case visiting:
			return fmt.Errorf("runtime: topology cycle through vertex %q", vertices[i].Name)
		case done:
			return nil
		}
		state[i] = visiting
		for _, n := range succ[i] {
			if err := visit(n); err != nil {
				return err
			}
		}
		state[i] = done
		return nil
	}
	for i := range vertices {
		if err := visit(i); err != nil {
			return err
		}
	}
	return nil
}

// buildDAG materializes the per-class paths of a TopologySpec, panicking
// on one that Validate rejects.
func (c *Chain) buildDAG(t *TopologySpec) {
	specs := make([]VertexSpec, len(c.Vertices))
	for i, v := range c.Vertices {
		specs[i] = v.Spec
	}
	if err := t.Validate(specs); err != nil {
		panic(err)
	}
	c.classify = t.Classify
	if c.classify == nil {
		c.classify = ClassifyProto
	}
	c.classIdx = make(map[string]uint8, len(t.Paths))
	c.classNames = nil
	c.classPaths = nil
	for _, ps := range t.Paths {
		var path []*Vertex
		for _, name := range ps.Vertices {
			path = append(path, c.VertexByName(name))
		}
		c.classIdx[ps.Class] = uint8(len(c.classNames))
		c.classNames = append(c.classNames, ps.Class)
		c.classPaths = append(c.classPaths, path)
	}
}
