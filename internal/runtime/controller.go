package runtime

import (
	"fmt"
	"sync"
	"time"

	"chc/internal/store"
	"chc/internal/transport"
)

// This file is the deployment control plane. The paper's metadata
// protocols make reconfiguration — elastic scaling, failover, cloning —
// SAFE; the Controller makes it OPERABLE: instead of imperative calls on
// Chain, an operator (or the Autoscaler, or chcd's admin API) submits a
// declarative DeploymentSpec describing what the deployment should look
// like, and ApplySpec diffs it against the running chain and emits the
// minimal sequence of the existing safe primitives (consistent-hash
// scale-out, drain-and-retire scale-in, Fig 4 flow moves) to converge.
// ApplySpec is the only supported mutation path; the raw Chain methods
// are unexported and reserved for the controller itself.

// DeploymentSpec declares the desired deployment shape. Vertices lists
// per-vertex replica counts; vertices absent from the list keep their
// current replica count (partial specs reconcile only what they name).
// StoreShards and Paths are fixed at Chain construction: a spec may
// restate them (CurrentSpec does), but a value differing from the running
// deployment is rejected — reconfiguring the shard tier or the policy DAG
// needs a redeploy, not a reconcile.
type DeploymentSpec struct {
	Vertices    []VertexDesire `json:"vertices"`
	StoreShards int            `json:"store_shards,omitempty"`
	Paths       []PathSpec     `json:"paths,omitempty"`
}

// VertexDesire is one vertex's desired state. Mode, like the topology, is
// immutable post-deployment: empty means "keep", anything else must match
// the running mode.
type VertexDesire struct {
	Name     string `json:"name"`
	Replicas int    `json:"replicas"`
	Mode     string `json:"mode,omitempty"`
}

// ReconcileAction records one safe primitive the controller emitted while
// converging toward a spec.
type ReconcileAction struct {
	// Op is the primitive: "scale-out", "scale-in", "failover", "clone",
	// "retain-faster", "add-instance" or "move-flows".
	Op       string         `json:"op"`
	Vertex   string         `json:"vertex"`
	Instance uint16         `json:"instance"`
	At       transport.Time `json:"at_ns"`
}

// ControllerStatus is the admin-facing view of the control plane (served
// by chcd's GET /status and embedded in its -json report).
type ControllerStatus struct {
	Spec              DeploymentSpec    `json:"spec"`
	SpecsApplied      int               `json:"specs_applied"`
	TotalActions      int               `json:"total_actions"`
	LastActions       []ReconcileAction `json:"last_actions,omitempty"`
	AutoscalerEvals   uint64            `json:"autoscaler_evals"`
	AutoscalerActions uint64            `json:"autoscaler_actions"`
	AutoscalerLast    string            `json:"autoscaler_last,omitempty"`
	// Checkpoints reports each shard's durable checkpoint area (§5.4);
	// omitted when no shard has ever checkpointed.
	Checkpoints []ShardCheckpointStatus `json:"checkpoints,omitempty"`
}

// ShardCheckpointStatus is one shard's checkpoint-area view: how many
// checkpoints were taken, retained, left torn by crashes or rejected by
// content-hash verification, and the newest checkpoint's content ID.
type ShardCheckpointStatus struct {
	Shard string `json:"shard"`
	store.CheckpointStats
}

// lastActionCap bounds the action tail kept for Status.
const lastActionCap = 32

// Controller reconciles DeploymentSpecs against the running chain. One
// controller exists per Chain (Chain.Controller); all mutating entry
// points serialize through its mutex, so a reconcile never interleaves
// with a failover or another reconcile (each verb's routing change is
// itself one atomic publish; see Chain.publish).
type Controller struct {
	chain *Chain

	// DrainGrace is the scale-in drain grace passed to the retirement
	// machinery (see Chain.scaleIn); the zero value uses 10ms.
	DrainGrace time.Duration

	mu          sync.Mutex
	applied     int
	total       int
	lastActions []ReconcileAction
	autoscalers []*Autoscaler
}

// NewController builds the chain's controller (called from runtime.New).
func newController(c *Chain) *Controller {
	return &Controller{chain: c, DrainGrace: 10 * time.Millisecond}
}

// Controller returns the chain's control plane.
func (c *Chain) Controller() *Controller { return c.ctl }

// liveReplicas counts the vertex's serving instances: alive and not
// draining (a draining instance is already on its way out and must not
// satisfy a desired replica).
func (c *Chain) liveReplicas(v *Vertex) int {
	t := c.topo.Load()
	n := 0
	for _, in := range t.slotsOf(v) {
		if t.serves(in) {
			n++
		}
	}
	return n
}

// CurrentSpec observes the running deployment as a total DeploymentSpec:
// one VertexDesire per vertex in declaration order, the shard count, and
// the policy-DAG paths (empty for linear chains).
func (ctl *Controller) CurrentSpec() DeploymentSpec {
	c := ctl.chain
	spec := DeploymentSpec{StoreShards: len(c.Stores)}
	for _, v := range c.Vertices {
		spec.Vertices = append(spec.Vertices, VertexDesire{
			Name:     v.Spec.Name,
			Replicas: c.liveReplicas(v),
			Mode:     v.Spec.Mode.Name(),
		})
	}
	if t := c.cfg.Topology; t != nil {
		spec.Paths = append(spec.Paths, t.Paths...)
	}
	return spec
}

// Status snapshots the controller and any attached autoscalers.
func (ctl *Controller) Status() ControllerStatus {
	spec := ctl.CurrentSpec()
	ctl.mu.Lock()
	st := ControllerStatus{
		Spec:         spec,
		SpecsApplied: ctl.applied,
		TotalActions: ctl.total,
		LastActions:  append([]ReconcileAction(nil), ctl.lastActions...),
	}
	scalers := append([]*Autoscaler(nil), ctl.autoscalers...)
	ctl.mu.Unlock()
	for _, a := range scalers {
		evals, actions, last := a.Counters()
		st.AutoscalerEvals += evals
		st.AutoscalerActions += actions
		if last != "" {
			st.AutoscalerLast = last
		}
	}
	for _, s := range ctl.chain.Stores {
		cs := s.CheckpointStats()
		if cs.Taken == 0 && cs.Torn == 0 {
			continue
		}
		st.Checkpoints = append(st.Checkpoints, ShardCheckpointStatus{
			Shard: s.Name, CheckpointStats: cs,
		})
	}
	return st
}

// validateSpec checks a spec against the running deployment without
// touching it: every named vertex must exist (once), replicas must respect
// the floor of 1 and the declared mode / shard count / paths must match
// the immutable deployment. Returns the resolved vertices in spec order.
func (ctl *Controller) validateSpec(spec DeploymentSpec) ([]*Vertex, error) {
	c := ctl.chain
	if spec.StoreShards != 0 && spec.StoreShards != len(c.Stores) {
		return nil, fmt.Errorf("controller: spec wants %d store shards but the deployment has %d (shard tier is fixed at construction)",
			spec.StoreShards, len(c.Stores))
	}
	if len(spec.Paths) > 0 {
		if err := ctl.checkPathsMatch(spec.Paths); err != nil {
			return nil, err
		}
	}
	seen := make(map[string]bool, len(spec.Vertices))
	verts := make([]*Vertex, 0, len(spec.Vertices))
	for _, d := range spec.Vertices {
		v := c.VertexByName(d.Name)
		if v == nil {
			return nil, fmt.Errorf("controller: spec references unknown vertex %q", d.Name)
		}
		if seen[d.Name] {
			return nil, fmt.Errorf("controller: spec names vertex %q twice", d.Name)
		}
		seen[d.Name] = true
		if d.Replicas < 1 {
			return nil, fmt.Errorf("controller: vertex %q wants %d replicas (floor is 1; remove the vertex by redeploying, not by scaling to zero)",
				d.Name, d.Replicas)
		}
		if d.Mode != "" && d.Mode != v.Spec.Mode.Name() {
			return nil, fmt.Errorf("controller: vertex %q runs mode %s; spec wants %s (mode is fixed at construction)",
				d.Name, v.Spec.Mode.Name(), d.Mode)
		}
		verts = append(verts, v)
	}
	return verts, nil
}

// checkPathsMatch compares restated paths against the running topology.
func (ctl *Controller) checkPathsMatch(paths []PathSpec) error {
	t := ctl.chain.cfg.Topology
	var cur []PathSpec
	if t != nil {
		cur = t.Paths
	}
	if len(paths) != len(cur) {
		return fmt.Errorf("controller: spec declares %d paths but the deployment has %d (topology is fixed at construction)",
			len(paths), len(cur))
	}
	for i, p := range paths {
		q := cur[i]
		if p.Class != q.Class || len(p.Vertices) != len(q.Vertices) {
			return fmt.Errorf("controller: spec path %q differs from the running topology (topology is fixed at construction)", p.Class)
		}
		for j := range p.Vertices {
			if p.Vertices[j] != q.Vertices[j] {
				return fmt.Errorf("controller: spec path %q differs from the running topology (topology is fixed at construction)", p.Class)
			}
		}
	}
	return nil
}

// ApplySpec validates spec, diffs it against the running chain and emits
// the minimal primitive sequence to converge: per named vertex, the
// replica delta becomes that many consistent-hash scale-outs or
// newest-first drain-and-retire scale-ins (each flow that must change
// instance moves through the Fig 4 handover protocol — exactly the
// machinery manual calls used; the controller adds no new state-transfer
// path). Validation is atomic: an invalid spec emits nothing. A spec
// already satisfied returns an empty action list. Scale-ins are initiated
// here and complete asynchronously once the drained instances are
// quiescent (on the DES, drive the chain past DrainGrace).
func (ctl *Controller) ApplySpec(spec DeploymentSpec) ([]ReconcileAction, error) {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	return ctl.applySpecLocked(spec)
}

func (ctl *Controller) applySpecLocked(spec DeploymentSpec) ([]ReconcileAction, error) {
	c := ctl.chain
	verts, err := ctl.validateSpec(spec)
	if err != nil {
		return nil, err
	}
	grace := ctl.DrainGrace
	if grace <= 0 {
		grace = 10 * time.Millisecond
	}
	actions := []ReconcileAction{}
	for i, d := range spec.Vertices {
		v := verts[i]
		for delta := d.Replicas - c.liveReplicas(v); delta > 0; delta-- {
			in := c.scaleOut(v)
			actions = append(actions, ctl.action("scale-out", v, in.ID))
		}
		for delta := c.liveReplicas(v) - d.Replicas; delta > 0; delta-- {
			in := ctl.newestLive(v)
			if in == nil {
				break
			}
			c.scaleIn(v, in, grace)
			actions = append(actions, ctl.action("scale-in", v, in.ID))
		}
	}
	ctl.applied++
	ctl.recordLocked(actions)
	return actions, nil
}

// newestLive picks the scale-in victim: the most recently added serving
// instance (draining newest-first keeps the longest-lived instances — and
// the bulk of the pinned flow placements — where they are).
func (ctl *Controller) newestLive(v *Vertex) *Instance {
	t := ctl.chain.topo.Load()
	insts := t.slotsOf(v)
	for i := len(insts) - 1; i >= 0; i-- {
		if t.serves(insts[i]) {
			return insts[i]
		}
	}
	return nil
}

// adjustReplicas reconciles a vertex by a RELATIVE delta, clamped to
// [min, max], resolving the current count under the controller lock (the
// Autoscaler's entry point: an absolute target computed outside the lock
// could clobber a concurrent admin ApplySpec — e.g. drain replicas an
// operator just created). Returns the emitted actions and the serving
// count the vertex was reconciled to; a clamp that lands on the current
// count emits nothing.
func (ctl *Controller) adjustReplicas(vertex string, delta, min, max int) ([]ReconcileAction, int, error) {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	v := ctl.chain.VertexByName(vertex)
	if v == nil {
		return nil, 0, fmt.Errorf("controller: unknown vertex %q", vertex)
	}
	cur := ctl.chain.liveReplicas(v)
	target := cur + delta
	if target < min {
		target = min
	}
	if target > max {
		target = max
	}
	if target < 1 {
		target = 1
	}
	if target == cur {
		return nil, cur, nil
	}
	actions, err := ctl.applySpecLocked(DeploymentSpec{Vertices: []VertexDesire{{Name: vertex, Replicas: target}}})
	return actions, target, err
}

// Drain is the admin "take one replica out of service" verb (chcd's POST
// /drain/{vertex}): it reconciles the vertex to one fewer replica,
// returning the emitted scale-in. Draining the last replica is refused.
func (ctl *Controller) Drain(vertex string) ([]ReconcileAction, error) {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	v := ctl.chain.VertexByName(vertex)
	if v == nil {
		return nil, fmt.Errorf("controller: unknown vertex %q", vertex)
	}
	n := ctl.chain.liveReplicas(v)
	if n <= 1 {
		return nil, fmt.Errorf("controller: vertex %q has %d serving replica(s); draining below 1 is refused", vertex, n)
	}
	return ctl.applySpecLocked(DeploymentSpec{Vertices: []VertexDesire{{Name: vertex, Replicas: n - 1}}})
}

// action stamps one emitted primitive.
func (ctl *Controller) action(op string, v *Vertex, inst uint16) ReconcileAction {
	return ReconcileAction{Op: op, Vertex: v.Spec.Name, Instance: inst, At: ctl.chain.tr.Now()}
}

// recordLocked appends actions to the bounded status tail.
func (ctl *Controller) recordLocked(actions []ReconcileAction) {
	ctl.total += len(actions)
	ctl.lastActions = append(ctl.lastActions, actions...)
	if n := len(ctl.lastActions); n > lastActionCap {
		ctl.lastActions = append([]ReconcileAction(nil), ctl.lastActions[n-lastActionCap:]...)
	}
}

// note records a controller-mediated imperative action.
func (ctl *Controller) note(op string, v *Vertex, inst uint16) {
	ctl.recordLocked([]ReconcileAction{ctl.action(op, v, inst)})
}

// --- Controller-mediated imperative escapes ----------------------------------
//
// Failure handling and the measurement harness need verbs a desired-state
// spec cannot express: "THIS instance crashed", "clone THIS straggler",
// "move THESE flows". They remain controller entry points (serialized with
// reconciliation, recorded in the action log) rather than raw Chain calls.

// Failover replaces a crashed (or about-to-be-crashed) instance: the
// replacement takes over its routing slot, the store re-binds its state
// and the root replays logged packets (§5.4).
func (ctl *Controller) Failover(old *Instance) *Instance {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	nu := ctl.chain.failoverNF(old)
	ctl.note("failover", old.vertex, nu.ID)
	return nu
}

// CloneStraggler deploys a clone alongside a straggler (§5.3); traffic
// replicates to both until one is retained.
func (ctl *Controller) CloneStraggler(straggler *Instance) *Instance {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	clone := ctl.chain.cloneStraggler(straggler)
	ctl.note("clone", straggler.vertex, clone.ID)
	return clone
}

// RetainFaster ends straggler mitigation keeping the clone.
func (ctl *Controller) RetainFaster(straggler, clone *Instance) {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	ctl.chain.retainFaster(straggler, clone)
	ctl.note("retain-faster", straggler.vertex, clone.ID)
}

// AddInstance grows a vertex WITHOUT rebalancing flows onto the newcomer
// (measurement harness use — e.g. the Fig 9 shared-set experiment adds an
// instance and then splits specific hosts by hand). Deployments should
// use ApplySpec, whose scale-out also rebalances.
func (ctl *Controller) AddInstance(v *Vertex) *Instance {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	in := ctl.chain.addInstance(v)
	ctl.note("add-instance", v, in.ID)
	return in
}

// MoveFlows reallocates specific canonical flow hashes to an instance
// through the Fig 4 handover protocol.
func (ctl *Controller) MoveFlows(v *Vertex, flowKeys []uint64, to *Instance) {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	ctl.chain.moveFlows(v, flowKeys, to)
	ctl.note("move-flows", v, to.ID)
}
