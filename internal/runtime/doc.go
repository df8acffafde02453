// Package runtime implements the CHC framework proper (§3-§5): the logical
// chain -> physical chain compiler, the root (logical clocks, packet log,
// the delete/XOR protocol of Fig 6, replay, the authoritative shard
// partition map), scope-aware splitters with the Fig 4 handover protocol,
// per-instance message queues with duplicate suppression, one forwarding
// buffer shared by the root and every instance, straggler cloning, and
// the failover paths for NF instances, roots and datastore shards.
//
// Splitters only decide (RouteBurst appends to its caller's list); the
// root, each instance and the live pacer send each flush as one burst.
//
// The topology is a directed acyclic policy graph (ChainConfig.Topology):
// one ordered vertex path per traffic class, classified once at the root
// and routed by per-class successor tables at every fork, with rejoins
// falling out of shared path suffixes. The correctness machinery is
// path-aware — per-class chain clocks, the Fig 6 check against each
// packet's class path, and branch-local replay on recovery. A nil
// topology collapses to the classic linear chain byte-identically.
//
// The datastore tier is a set of shard servers (ChainConfig.StoreShards)
// behind consistent-hash key partitioning; Chain.StoreFor locates a key's
// shard and Chain.RecoverStoreShard rebuilds a crashed shard from the
// clients' per-shard WAL slices.
//
// Reconfiguration is declarative: Chain.Controller reconciles a submitted
// DeploymentSpec (per-vertex replica counts) against the running chain,
// emitting the minimal sequence of safe primitives — consistent-hash
// scale-out moving only the flows that remap onto the newcomer (Fig 4
// handovers, no in-flight reordering), newest-first drain-and-retire
// scale-in — on any branch of the DAG. Controller.StartAutoscaler layers
// a load-band policy (hysteresis + cooldown) on top, and failure verbs
// (Failover, CloneStraggler) are controller-mediated. The raw Chain
// scaling methods are unexported: ApplySpec is the supported mutation
// path (DESIGN.md §8).
//
// The runtime is written against transport.Transport, so the same chain
// code runs on three substrates selected by ChainConfig.Substrate: the
// deterministic DES of internal/vtime + internal/simnet (the correctness
// oracle, and the default), internal/livenet's real goroutines and
// wall-clock time (the performance artifact, exercised under the race
// detector), or internal/netnet's real TCP sockets, where
// ChainConfig.Nodes places endpoints on nodes and ChainConfig.Node makes
// one OS process host one node's share of the chain (multi-process
// deployments; see DESIGN.md §12). See DESIGN.md §1 for the simulation
// rationale, §5 for the sharding/elasticity design, §6 for the policy-DAG
// model and §7 for the live execution mode.
package runtime
