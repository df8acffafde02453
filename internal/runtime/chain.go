package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"chc/internal/livenet"
	"chc/internal/netnet"
	"chc/internal/nf"
	"chc/internal/packet"
	"chc/internal/simnet"
	"chc/internal/store"
	"chc/internal/transport"
	"chc/internal/vtime"
)

// Substrate selects the execution substrate a chain deploys on.
type Substrate uint8

// Substrates. The zero value is the deterministic simulation, so a zero
// ChainConfig keeps the historical DES behavior.
const (
	// SubstrateSim runs the whole deployment on the deterministic
	// discrete-event simulation — the correctness oracle, byte-identical
	// to the historical behavior.
	SubstrateSim Substrate = iota
	// SubstrateLive runs the SAME chain code on internal/livenet: real
	// goroutines, channels and wall-clock time in one process.
	SubstrateLive
	// SubstrateNet runs on internal/netnet: real TCP sockets between
	// nodes. With ChainConfig.Node set, this process hosts only that
	// node's share of the chain (a chcd worker in a multi-process
	// deployment); with Node empty, every declared node runs in-process
	// as a loopback cluster whose cross-node traffic still crosses real
	// sockets and the wire codec.
	SubstrateNet
)

func (s Substrate) String() string {
	switch s {
	case SubstrateLive:
		return "live"
	case SubstrateNet:
		return "net"
	default:
		return "sim"
	}
}

// BackendKind selects how a vertex's instances manage state.
type BackendKind uint8

// Backend kinds.
const (
	// BackendCHC externalizes state to the store via the client library;
	// the vertex Mode picks EO / EO+C / EO+C+NA.
	BackendCHC BackendKind = iota
	// BackendTraditional keeps all state NF-local (baseline "T").
	BackendTraditional
	// BackendLocking is the naive lock-RMW baseline of §7.1.
	BackendLocking
)

// VertexSpec declares one logical NF in the chain DAG (§3).
type VertexSpec struct {
	Name      string
	Make      func() nf.NF // one NF value per instance
	Instances int
	// OffPath vertices receive a copy of the previous on-path vertex's
	// output (like the Trojan detector attached to the NAT in §7.1) and
	// produce no downstream traffic.
	OffPath bool
	Backend BackendKind
	Mode    store.Mode
	// ServiceTime is the per-packet CPU cost of this NF; zero uses the
	// chain default.
	ServiceTime time.Duration
	// Threads is the number of processing workers per instance (the paper
	// runs multiple processing threads per NF to reach 10G; §7).
	Threads int
}

// ChainConfig tunes the whole deployment.
type ChainConfig struct {
	// Seed drives all simulation randomness.
	Seed int64
	// LinkLatency is the one-way latency between any two components
	// (instances, store, root). The paper's store RTTs dominate latency.
	LinkLatency time.Duration
	// DefaultServiceTime is the per-packet NF CPU cost when the vertex does
	// not override it.
	DefaultServiceTime time.Duration
	// DefaultThreads is the per-instance worker count default.
	DefaultThreads int

	// ClockPersistEvery writes the root clock to the store every n packets
	// (§7.2; n=1 every packet). Zero disables persistence.
	ClockPersistEvery int
	// LogInStore selects datastore packet logging (more fault tolerant,
	// +1 RTT) instead of root-local logging (§7.2).
	LogInStore bool
	// RootLogCost is the per-packet cost of root-local logging (§7.2: ~1µs
	// with one root; lower values model the paper's R parallel root
	// instances splitting input traffic). Zero models no cost.
	RootLogCost time.Duration
	// SyncDelete makes the last on-path NF await delete-request delivery
	// before emitting output (§5.4); async risks duplicates at the receiver.
	SyncDelete bool
	// XORCheck enables the Fig 6 bit-vector commit check at the root.
	XORCheck bool
	// DupSuppress enables clock-based duplicate suppression at instance
	// queues (R5). Disabling it reproduces Table 5's baseline.
	DupSuppress bool
	// RootLogLimit drops packets at the root when the in-flight log exceeds
	// this size (buffer-bloat guard, §5). Zero means unlimited.
	RootLogLimit int

	// StoreShards is the number of datastore shard servers; keys partition
	// across them by consistent hashing (store.PartitionMap). Zero means 1:
	// the single-server tier, whose behavior is byte-identical to the
	// pre-sharding deployment.
	StoreShards int
	// StoreOpService is the per-op service time at store servers. Zero
	// models no cost.
	StoreOpService time.Duration
	// CheckpointEvery enables periodic durable store checkpoints (§5.4),
	// each of which truncates the client WALs behind the oldest checkpoint
	// a shard keeps. Zero disables checkpointing: recovery then replays
	// the full WAL, and the WAL holds every op logged since the start. The
	// DES default is zero (the goldens); live and net default to
	// liveCheckpointEvery.
	CheckpointEvery time.Duration
	// CheckpointWriteCost models the durable-write latency of one
	// checkpoint: a crash inside the window leaves a torn checkpoint that
	// recovery skips. Zero commits atomically.
	CheckpointWriteCost time.Duration
	// FlushEvery drives periodic per-flow cache flushes at clients.
	FlushEvery time.Duration
	// CoalesceWindow is passed to every store client (see
	// store.ClientConfig.CoalesceWindow): zero keeps the client default,
	// negative also turns off the merging of non-blocking increments.
	CoalesceWindow time.Duration
	// AckTimeout overrides the store clients' async-op retransmission
	// timeout. Zero keeps the client default.
	AckTimeout time.Duration
	// RPCTimeout overrides the store clients' blocking-call timeout. Zero
	// keeps the client default. Raise it for experiments that deliberately
	// saturate the store tier (queue waits beyond the default would
	// otherwise time out blocking ops).
	RPCTimeout time.Duration
	// HandoverTimeout bounds how long the new instance of a Fig 4 move
	// waits to acquire a flow's state. It must outlast the old instance's
	// worst-case queue backlog: the release only happens once the old
	// instance has worked through every packet queued before the "last"
	// mark. Zero means 250ms.
	HandoverTimeout time.Duration

	// Topology, when non-nil, generalizes the linear chain into a policy
	// DAG: one ordered vertex path per traffic class, with the root's
	// classifier picking each packet's branch (see TopologySpec). Nil keeps
	// the historical linear order over the declared on-path vertices,
	// byte-identically.
	Topology *TopologySpec

	// Substrate selects the execution substrate: SubstrateSim (default,
	// the deterministic DES oracle), SubstrateLive (real goroutines in one
	// process), or SubstrateNet (real TCP between nodes; see Nodes/Node).
	// On the real-time substrates each instance runs one run-to-completion
	// worker (VertexSpec.Threads is ignored: the NF values keep
	// instance-local state, so parallelism comes from more instances and
	// from chain pipelining, like one lcore per NF), and modeled costs
	// (service-time sleeps, root log delay, store op service) should be
	// left at zero — the real execution is the cost.
	Substrate Substrate
	// Nodes declares endpoint placement for SubstrateNet: which node hosts
	// each component endpoint (root0, sink, storeN, vertex instances).
	// Endpoints not matched by any node's list hash-spread across the
	// declared nodes. Ignored on sim/live.
	Nodes []transport.NodeSpec
	// Node, when non-empty on SubstrateNet, makes this process host ONLY
	// the named node's share of the chain (a chcd worker in a
	// multi-process deployment): every process builds the same chain from
	// the same config, but components whose endpoint lives on another node
	// are not started here — their traffic arrives over TCP. Empty runs
	// all declared nodes in-process as a loopback cluster.
	Node string
}

// DefaultChainConfig matches the calibration in DESIGN.md: 15µs one-way
// link latency (30µs store RTT) and multi-threaded NFs whose aggregate
// service rate saturates just under a 10 Gbps rate for 1434B packets.
func DefaultChainConfig() ChainConfig {
	return ChainConfig{
		Seed:               1,
		LinkLatency:        15 * time.Microsecond,
		DefaultServiceTime: 9 * time.Microsecond,
		DefaultThreads:     8,
		ClockPersistEvery:  100,
		SyncDelete:         false,
		XORCheck:           true,
		DupSuppress:        true,
		RootLogLimit:       1 << 20,
		RootLogCost:        time.Microsecond,
		StoreOpService:     200 * time.Nanosecond,
		FlushEvery:         time.Millisecond,
	}
}

// LiveChainConfig returns the calibration for live execution: no modeled
// latencies or service costs (real execution is the cost), protocol
// timers kept, single run-to-completion worker per instance, and periodic
// store checkpoints that bound the client WALs.
func LiveChainConfig() ChainConfig {
	cfg := DefaultChainConfig()
	cfg.Substrate = SubstrateLive
	cfg.LinkLatency = 0
	cfg.DefaultServiceTime = 0
	cfg.DefaultThreads = 1
	cfg.StoreOpService = 0
	cfg.RootLogCost = 0
	// Real-time protocol timers. The RPC timeout is generous: on a loaded
	// machine a backlogged store can hold a blocking op well past the
	// DES's calibrated 10ms, and a timed-out-but-applied op would be
	// dropped from its packet's XOR vector while the store's commit still
	// reaches the root — a permanently unbalanced clock. CHC treats RPC
	// timeout as failure suspicion, not load shedding.
	cfg.RPCTimeout = 5 * time.Second
	cfg.AckTimeout = 100 * time.Millisecond
	cfg.CoalesceWindow = time.Millisecond
	cfg.HandoverTimeout = 2 * time.Second
	cfg.CheckpointEvery = liveCheckpointEvery
	return cfg
}

// liveCheckpointEvery is the live and net checkpoint period: the client
// WAL holds about two periods of ops (truncation lags to the older of
// the two checkpoints a shard keeps), not everything since the start.
const liveCheckpointEvery = 100 * time.Millisecond

// NetChainConfig returns the live calibration retargeted at real TCP
// sockets: nodes declares endpoint placement, node names the node THIS
// process hosts ("" runs every node in-process as a loopback cluster).
func NetChainConfig(nodes []transport.NodeSpec, node string) ChainConfig {
	cfg := LiveChainConfig()
	cfg.Substrate = SubstrateNet
	cfg.Nodes = nodes
	cfg.Node = node
	return cfg
}

// Chain is a deployed physical chain.
type Chain struct {
	cfg  ChainConfig
	sub  Substrate
	sim  *vtime.Sim // nil in live mode
	tr   transport.Transport
	spec []VertexSpec
	pmap *store.PartitionMap
	// Multi-process placement (SubstrateNet only): nodes maps endpoints to
	// nodes, node names the node THIS process hosts ("" = all of them).
	// Components whose endpoint is homed elsewhere are built but not
	// started — see onNode.
	nodes *transport.NodeMap
	node  string
	// arena recycles packet buffers on the live hot path (disabled — plain
	// allocation — on the DES, where recycling has nothing to amortize and
	// the golden outputs must not depend on pool behavior).
	arena *packet.Arena

	Root *Root
	// Stores are the datastore tier's shard servers; keys partition across
	// them per the chain's PartitionMap (StoreFor locates a key's shard).
	Stores   []*store.Server
	Vertices []*Vertex
	Sink     *Sink
	Metrics  *Metrics
	// ctl is the chain's control plane (Controller): the only supported
	// reconfiguration path.
	ctl *Controller

	// topo is the published routing state (see topology): readers Load it,
	// never lock. topoMu serializes its writers only (Chain.publish) — in
	// live mode controller verbs and scale-in retirement timers run
	// concurrently with each other and with traffic.
	topo   atomic.Pointer[topology]
	topoMu sync.Mutex

	// Policy-DAG state (see topology.go). classNames indexes traffic
	// classes; classPaths holds each class's ordered on-path vertex
	// sequence; classify is nil for linear chains (single class 0).
	classNames []string
	classIdx   map[string]uint8
	classPaths [][]*Vertex
	classify   func(*packet.Packet) string
	// entry is the root's successors: the first vertex of each class path
	// and the root-attached taps. It is the chain's, not the root's, so a
	// recovered root forwards through it unchanged.
	entry successors
}

// topology is the deployment's routing state — which instance serves which
// ID — as ONE immutable value (not the policy DAG; that is TopologySpec).
// A published topology is never written again: every control verb copies
// it, edits the copy and publishes it once (Chain.publish), so the packet
// path reads a single consistent view with one atomic load and a reader
// can never see a half-applied failover. Instance IDs are global and
// dense (1, 2, ...), so the ID tables are slices indexed by ID with entry
// 0 unused.
type topology struct {
	// slots holds each vertex's routing slots (index Vertex.ID-1) in
	// hash % len placement order.
	slots [][]*Instance
	// byID is every instance ever created, live or not.
	byID []*Instance
	// serving is the instance now handling each ID's traffic: itself, or —
	// with failover and retain-faster redirects already resolved — the
	// instance that finally took over.
	serving []*Instance
	// replica is the clone mirroring each primary's traffic (§5.3), nil
	// for none.
	replica []*Instance
	// dead marks fail-stopped instances; draining marks those scaled in
	// (Chain.scaleIn), whose hash share new keys skip, retirees included.
	dead, draining []bool
}

// serves reports whether in takes new traffic: neither dead nor draining.
func (t *topology) serves(in *Instance) bool {
	return !t.dead[in.ID] && !t.draining[in.ID]
}

// slotsOf returns v's routing slots. The slice is shared with every reader
// of this snapshot: iterate, never write.
func (t *topology) slotsOf(v *Vertex) []*Instance { return t.slots[v.ID-1] }

// pick returns the instance serving the slot of v that hash h lands on.
func (t *topology) pick(v *Vertex, h uint64) *Instance {
	insts := t.slotsOf(v)
	return t.serving[insts[h%uint64(len(insts))].ID]
}

// Vertex is the physical realization of a VertexSpec.
type Vertex struct {
	Spec VertexSpec
	ID   uint16
	// Instances is the vertex's routing slots as of the last publish, for
	// callers outside the package to range over. It is assigned a fresh
	// slice at every publish and never mutated in place.
	Instances []*Instance
	Splitter  *Splitter // routes traffic INTO this vertex's instances
	chain     *Chain

	// Topology wiring (set by wireTopology): the successors this vertex's
	// instances forward to, and onClass, its traffic-class membership.
	// Linear chains have exactly one class, so len(next) == 1 and next[0]
	// is the downstream vertex.
	successors
	onClass []bool
}

// New builds (but does not start) a chain on the substrate selected by
// cfg.Substrate: the deterministic DES (default), livenet's real
// goroutines, or netnet's real TCP sockets. On SubstrateNet every process
// builds the full chain; cfg.Node decides which components Start actually
// spawns here (see onNode).
func New(cfg ChainConfig, spec ...VertexSpec) *Chain {
	var tr transport.Transport
	var sim *vtime.Sim
	var nodes *transport.NodeMap
	sub := cfg.Substrate
	switch sub {
	case SubstrateLive:
		tr = livenet.New(livenet.Config{Seed: cfg.Seed,
			DefaultLink: transport.LinkConfig{Latency: cfg.LinkLatency}})
	case SubstrateNet:
		link := transport.LinkConfig{Latency: cfg.LinkLatency}
		if cfg.Node == "" {
			cl, err := netnet.NewCluster(netnet.ClusterConfig{
				Seed: cfg.Seed, DefaultLink: link, Nodes: cfg.Nodes})
			if err != nil {
				panic(fmt.Sprintf("runtime: netnet cluster: %v", err))
			}
			tr, nodes = cl, cl.Nodes()
		} else {
			nodes = transport.NewNodeMap(cfg.Nodes)
			n, err := netnet.New(netnet.Config{Seed: cfg.Seed,
				DefaultLink: link, Node: cfg.Node, Nodes: nodes})
			if err != nil {
				panic(fmt.Sprintf("runtime: netnet node %q: %v", cfg.Node, err))
			}
			tr = n
		}
	default:
		sim = vtime.NewSim(cfg.Seed)
		tr = simnet.New(sim, transport.LinkConfig{Latency: cfg.LinkLatency})
	}
	c := &Chain{cfg: cfg, sub: sub, sim: sim, tr: tr, spec: spec,
		nodes: nodes, node: cfg.Node, Metrics: NewMetrics(sub == SubstrateSim),
		arena: packet.NewArena(sub != SubstrateSim)}
	c.topo.Store(&topology{slots: make([][]*Instance, len(spec)),
		byID: []*Instance{nil}, serving: []*Instance{nil}, replica: []*Instance{nil},
		dead: []bool{false}, draining: []bool{false}})

	nshards := cfg.StoreShards
	if nshards <= 0 {
		nshards = 1
	}
	scfg := cfg.storeServerConfig("root0")
	names := make([]string, nshards)
	for i := 0; i < nshards; i++ {
		names[i] = ShardEndpoint(i)
		c.Stores = append(c.Stores, store.NewServer(tr, names[i], scfg))
	}
	c.pmap = store.NewPartitionMap(names)

	c.Root = NewRoot(c, 0, "root0")
	c.Sink = NewSink(c)

	for vi, vs := range spec {
		if vs.Instances <= 0 {
			vs.Instances = 1
		}
		if vs.ServiceTime == 0 {
			vs.ServiceTime = cfg.DefaultServiceTime
		}
		if vs.Threads == 0 {
			vs.Threads = cfg.DefaultThreads
		}
		v := &Vertex{Spec: vs, ID: uint16(vi + 1), chain: c}
		c.Vertices = append(c.Vertices, v)
		c.publish(func(t *topology) { //chc:allow specmutation -- initial deployment: nothing is running yet, there is no action to log
			for k := 0; k < vs.Instances; k++ {
				t.slots[vi] = append(t.slots[vi], c.newInstance(t, v))
			}
		})
		v.Splitter = NewSplitter(c, v)
	}
	c.wireTopology()
	c.ctl = newController(c)
	return c
}

// storeServerConfig derives the shard-server configuration from the chain
// config (used both at deployment and when RecoverStoreShard rebuilds a
// crashed shard, so the replacement keeps the same checkpoint cadence).
func (cfg ChainConfig) storeServerConfig(rootEndpoint string) store.ServerConfig {
	return store.ServerConfig{
		OpService:           cfg.StoreOpService,
		CheckpointEvery:     cfg.CheckpointEvery,
		CheckpointWriteCost: cfg.CheckpointWriteCost,
		RootEndpoint:        rootEndpoint,
	}
}

// Sim exposes the simulator (experiments drive it directly). Nil when the
// chain runs live.
func (c *Chain) Sim() *vtime.Sim { return c.sim }

// Net exposes the transport substrate (link configuration, fault
// injection, endpoints).
func (c *Chain) Net() transport.Transport { return c.tr }

// Now returns the substrate's current time (virtual or since-start).
func (c *Chain) Now() transport.Time { return c.tr.Now() }

// live is the internal spelling of "real-time substrate": code paths branch
// on this rather than on one substrate, so livenet behavior extends
// unchanged to netnet.
func (c *Chain) live() bool { return c.sub != SubstrateSim }

// Substrate reports which substrate the chain was built on.
func (c *Chain) Substrate() Substrate { return c.sub }

// NodeMap returns the chain's endpoint-placement map (nil unless the
// chain runs on SubstrateNet).
func (c *Chain) NodeMap() *transport.NodeMap { return c.nodes }

// OwnsEndpoint reports whether the component owning endpoint ep runs in
// THIS process (chcd workers use it to route verbs that must execute on a
// component's home, like injecting at the root).
func (c *Chain) OwnsEndpoint(ep string) bool { return c.onNode(ep) }

// onNode reports whether the component owning endpoint ep runs in THIS
// process. True everywhere except a SubstrateNet worker (cfg.Node set),
// where exactly one process answers true per endpoint.
func (c *Chain) onNode(ep string) bool {
	if c.nodes == nil || c.node == "" {
		return true
	}
	return c.nodes.NodeOf(ep) == c.node
}

// NetStats reports cross-node transport traffic (zero unless the chain
// runs on SubstrateNet, where >0 remote counts prove traffic crossed real
// sockets and the wire codec).
func (c *Chain) NetStats() netnet.NetStats {
	if s, ok := c.tr.(interface{ Stats() netnet.NetStats }); ok {
		return s.Stats()
	}
	return netnet.NetStats{}
}

// Arena exposes the chain's packet arena (recycling is live-mode only; on
// the DES the arena degrades to plain allocation).
func (c *Chain) Arena() *packet.Arena { return c.arena }

// liveBurstSize is the packet-burst width of the real-time substrates: the
// driver's pacer injects up to this many trace packets as one transport
// burst, and the root and every instance take up to this many queued
// packets per wake (drain), so a mailbox is locked and notified once per
// burst rather than once per packet.
const liveBurstSize = 32

// burstSize is the chain's burst width: liveBurstSize on live and net, 1 on
// the DES. The DES runs the same burst path, with bursts of one: simnet's
// SendBurst is a Send loop, so its send sequence and times are those of
// per-packet sends.
func (c *Chain) burstSize() int {
	if c.live() {
		return liveBurstSize
	}
	return 1
}

// drain is one wake of a packet-processing loop (the root's and every
// instance worker's). It receives one message; while that is a packet it
// keeps taking the packets already queued, up to bs, handing each to
// handle. Any other message goes to other, after a flush, so outputs and
// side effects keep arrival order; the wake ends with a flush.
func drain(p transport.Proc, ep transport.Endpoint, bs int,
	handle func(*packet.Packet), other func(transport.Message), flush func()) {
	msg := ep.Recv(p)
	pkt, ok := packetOf(msg.Payload)
	if !ok {
		other(msg)
		return
	}
	handle(pkt)
	for n := 1; n < bs && ep.Len() > 0; {
		msg = ep.Recv(p)
		if pkt, ok := packetOf(msg.Payload); ok {
			handle(pkt)
			n++
			continue
		}
		flush()
		other(msg)
	}
	flush()
}

// packetOf returns the packet a message carries. Chain components send the
// packet itself, restamping SentNs at every hop; the PacketMsg ingress
// envelope is unwrapped here, its SentAt becoming the hop stamp.
func packetOf(payload any) (*packet.Packet, bool) {
	switch m := payload.(type) {
	case *packet.Packet:
		return m, true
	case PacketMsg:
		m.Pkt.SentNs = int64(m.SentAt)
		return m.Pkt, true
	}
	return nil, false
}

// Stop fail-stops every chain process and timer and waits for them to
// exit (live mode: after Stop, component state — root/sink counters,
// instance stats, engines — is safe to read from the caller). On the DES
// it is a no-op: the caller owns the scheduler.
func (c *Chain) Stop() {
	c.tr.Shutdown()
}

// Config returns the chain configuration.
func (c *Chain) Config() ChainConfig { return c.cfg }

// OnPath returns the on-path vertices in chain order.
func (c *Chain) OnPath() []*Vertex {
	var out []*Vertex
	for _, v := range c.Vertices {
		if !v.Spec.OffPath {
			out = append(out, v)
		}
	}
	return out
}

// sendControl delivers a framework control message to a component.
func (c *Chain) sendControl(to string, payload any) {
	c.tr.Send(transport.Message{From: "framework", To: to, Payload: payload, Size: 16})
}

// Start spawns all component processes. On a SubstrateNet worker only the
// components homed on this process's node spawn (everything is still
// BUILT everywhere, so IDs, partition maps and topology agree across
// processes).
func (c *Chain) Start() {
	for i, s := range c.Stores {
		if c.onNode(ShardEndpoint(i)) {
			s.Start()
		}
	}
	if c.onNode(c.Root.Endpoint) {
		c.Root.Start()
		if c.live() {
			// Arm the §5.4 retransmission sweep: live substrates lose
			// packets for real (worker death, socket teardown), and the
			// root is the conservation authority that must re-drive them.
			// Never armed on the DES — its schedules are loss-accounted,
			// and an extra timer would perturb every golden digest.
			var tick func()
			tick = func() {
				c.sendControl(c.Root.Endpoint, SweepCmd{})
				c.tr.Schedule(rootSweepEvery, tick)
			}
			c.tr.Schedule(rootSweepEvery, tick)
		}
	}
	if c.onNode(SinkEndpoint) {
		c.Sink.Start()
	}
	for _, v := range c.Vertices {
		for _, inst := range c.topo.Load().slotsOf(v) {
			inst.Start()
		}
	}
	c.registerCustomOps()
}

func (c *Chain) registerCustomOps() {
	for _, v := range c.Vertices {
		if p, ok := v.Spec.Make().(nf.CustomOpProvider); ok {
			for name, fn := range p.CustomOps() {
				for _, s := range c.Stores {
					s.RegisterCustom(name, fn)
				}
			}
		}
	}
}

// Seed runs fn against the vertex's shared state through instance 0's
// backend (port pools, server tables) before traffic starts. On a
// SubstrateNet worker, only instance 0's home node performs the seeding
// (the state lands in the shared store, visible to every process).
func (v *Vertex) Seed(fn func(apply func(store.Request))) {
	inst := v.chain.topo.Load().slotsOf(v)[0]
	if !v.chain.onNode(inst.Endpoint) {
		return
	}
	done := v.chain.tr.NewSignal()
	v.chain.tr.Spawn(fmt.Sprintf("seed-v%d", v.ID), func(p transport.Proc) {
		ctx := nf.NewCtx(p, inst.state, nil)
		fn(func(r store.Request) {
			inst.state.UpdateBlocking(ctx, r)
		})
		done.Resolve(nil)
	})
	// Blocking seeding can take many RTTs (e.g. thousands of port pushes);
	// drive the substrate until it finishes.
	for i := 0; i < 100 && !done.Resolved(); i++ {
		if v.chain.tr.Drive(done, 50*time.Millisecond) {
			break
		}
	}
	if !done.Resolved() {
		panic("runtime: Seed did not complete")
	}
}

// instanceByID looks an instance up by global ID: any instance ever
// created, serving or not. IDs arrive off the wire (commit signals, replay
// markers), so unknown ones yield nil.
func (c *Chain) instanceByID(id uint16) *Instance {
	if t := c.topo.Load(); int(id) < len(t.byID) {
		return t.byID[id]
	}
	return nil
}

// StoreEndpoint names shard 0's endpoint (the whole store tier in
// single-shard deployments).
const StoreEndpoint = "store0"

// ShardEndpoint names shard i's endpoint.
func ShardEndpoint(i int) string {
	if i == 0 {
		return StoreEndpoint
	}
	return fmt.Sprintf("store%d", i)
}

// Partition returns the chain's authoritative shard partition map (the root
// serves the same map over PartitionQuery).
func (c *Chain) Partition() *store.PartitionMap { return c.pmap }

// StoreFor returns the shard server owning key k.
func (c *Chain) StoreFor(k store.Key) *store.Server { return c.Stores[c.pmap.Index(k)] }

// StoreGet reads k from the engine of the shard that owns it (tests,
// examples, invariant checks).
func (c *Chain) StoreGet(k store.Key) (store.Value, bool) {
	return c.StoreFor(k).Engine().Get(k)
}

// StoreSnapshot merges every shard's full snapshot into one view of the
// datastore tier. Shards partition the key space, so entries never collide;
// per-instance TS clocks are position markers local to each shard's
// execution order, so the merged vector keeps each instance's largest clock
// (diagnostics only — per-shard recovery uses each shard's own snapshot).
func (c *Chain) StoreSnapshot() *store.Snapshot {
	out := &store.Snapshot{
		Entries: make(map[store.Key]store.Value),
		Owners:  make(map[store.Key]uint16),
		TS:      make(map[uint16]uint64),
	}
	for _, s := range c.Stores {
		snap := s.Engine().Snapshot()
		for k, v := range snap.Entries {
			out.Entries[k] = v
		}
		for k, o := range snap.Owners {
			out.Owners[k] = o
		}
		for inst, clk := range snap.TS {
			if clk > out.TS[inst] {
				out.TS[inst] = clk
			}
		}
	}
	return out
}
