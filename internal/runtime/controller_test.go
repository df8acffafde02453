package runtime

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"chc/internal/nf"
	"chc/internal/nf/nat"
	"chc/internal/nf/portscan"
	"chc/internal/store"
)

// applyReplicas reconciles one vertex to n replicas through the
// controller, failing the test on a rejected spec.
func applyReplicas(t *testing.T, c *Chain, name string, n int) []ReconcileAction {
	t.Helper()
	acts, err := c.Controller().ApplySpec(DeploymentSpec{
		Vertices: []VertexDesire{{Name: name, Replicas: n}},
	})
	if err != nil {
		t.Fatalf("ApplySpec(%s=%d): %v", name, n, err)
	}
	return acts
}

// twoVertexChain deploys nat -> ids for reconciliation tests.
func twoVertexChain(t *testing.T, natInstances, idsInstances int) *Chain {
	t.Helper()
	c := New(testConfig(),
		natVertex(natInstances, BackendCHC, store.ModeEOCNA),
		VertexSpec{
			Name:      "ids",
			Make:      func() nf.NF { return portscan.New() },
			Instances: idsInstances,
			Backend:   BackendCHC,
			Mode:      store.ModeEOCNA,
		},
	)
	c.Start()
	seedNAT(c, c.Vertices[0])
	return c
}

// TestApplySpecNoop: a spec that matches the running deployment emits
// ZERO primitive calls — the reconciler is a fixpoint, not a restart.
func TestApplySpecNoop(t *testing.T) {
	c := twoVertexChain(t, 2, 1)
	ctl := c.Controller()

	// Total no-op spec, exactly as CurrentSpec reports it.
	acts, err := ctl.ApplySpec(ctl.CurrentSpec())
	if err != nil {
		t.Fatalf("ApplySpec(CurrentSpec): %v", err)
	}
	if len(acts) != 0 {
		t.Fatalf("no-op spec emitted %d actions: %+v", len(acts), acts)
	}
	// The instance sets are untouched.
	if got := len(c.Vertices[0].Instances); got != 2 {
		t.Fatalf("nat has %d instances after no-op", got)
	}
	if got := len(c.Vertices[1].Instances); got != 1 {
		t.Fatalf("ids has %d instances after no-op", got)
	}
	st := ctl.Status()
	if st.SpecsApplied != 1 || st.TotalActions != 0 {
		t.Fatalf("status = %+v, want 1 spec applied / 0 actions", st)
	}
}

// TestApplySpecScaleOutAndInTogether: one spec may scale one vertex out
// while scaling another in; both deltas converge in a single reconcile.
func TestApplySpecScaleOutAndInTogether(t *testing.T) {
	c := twoVertexChain(t, 1, 2)
	ctl := c.Controller()
	ctl.DrainGrace = 2 * time.Millisecond

	acts, err := ctl.ApplySpec(DeploymentSpec{Vertices: []VertexDesire{
		{Name: "nat", Replicas: 3},
		{Name: "ids", Replicas: 1},
	}})
	if err != nil {
		t.Fatalf("ApplySpec: %v", err)
	}
	var outs, ins int
	for _, a := range acts {
		switch {
		case a.Op == "scale-out" && a.Vertex == "nat":
			outs++
		case a.Op == "scale-in" && a.Vertex == "ids":
			ins++
		default:
			t.Fatalf("unexpected action %+v", a)
		}
	}
	if outs != 2 || ins != 1 {
		t.Fatalf("got %d scale-outs / %d scale-ins, want 2/1 (actions: %+v)", outs, ins, acts)
	}
	if got := c.liveReplicas(c.Vertices[0]); got != 3 {
		t.Fatalf("nat serving replicas = %d, want 3", got)
	}
	// The ids drain completes asynchronously; drive past the grace.
	c.RunFor(10 * time.Millisecond)
	if got := c.liveReplicas(c.Vertices[1]); got != 1 {
		t.Fatalf("ids serving replicas = %d after drain, want 1", got)
	}
	// Convergence: re-applying the same spec is now a no-op.
	acts, err = ctl.ApplySpec(DeploymentSpec{Vertices: []VertexDesire{
		{Name: "nat", Replicas: 3},
		{Name: "ids", Replicas: 1},
	}})
	if err != nil || len(acts) != 0 {
		t.Fatalf("second apply: acts=%+v err=%v, want converged no-op", acts, err)
	}
}

// TestApplySpecValidation: invalid specs are rejected atomically — the
// error cases emit nothing and leave the deployment untouched.
func TestApplySpecValidation(t *testing.T) {
	c := twoVertexChain(t, 1, 1)
	ctl := c.Controller()

	cases := []struct {
		name string
		spec DeploymentSpec
		want string // substring of the error
	}{
		{"unknown vertex", DeploymentSpec{Vertices: []VertexDesire{{Name: "firewall", Replicas: 2}}}, "unknown vertex"},
		{"replica floor", DeploymentSpec{Vertices: []VertexDesire{{Name: "nat", Replicas: 0}}}, "floor is 1"},
		{"negative replicas", DeploymentSpec{Vertices: []VertexDesire{{Name: "nat", Replicas: -3}}}, "floor is 1"},
		{"duplicate vertex", DeploymentSpec{Vertices: []VertexDesire{
			{Name: "nat", Replicas: 2}, {Name: "nat", Replicas: 3}}}, "twice"},
		{"mode change", DeploymentSpec{Vertices: []VertexDesire{{Name: "nat", Replicas: 1, Mode: "eo"}}}, "mode is fixed"},
		{"shard change", DeploymentSpec{StoreShards: 4}, "store shards"},
		{"topology change", DeploymentSpec{Paths: []PathSpec{{Class: "tcp", Vertices: []string{"nat"}}}}, "topology is fixed"},
	}
	for _, tc := range cases {
		acts, err := ctl.ApplySpec(tc.spec)
		if err == nil {
			t.Fatalf("%s: spec accepted, actions %+v", tc.name, acts)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// Atomicity: a spec that mixes a valid desire with an invalid one
	// performs neither.
	_, err := ctl.ApplySpec(DeploymentSpec{Vertices: []VertexDesire{
		{Name: "nat", Replicas: 2},
		{Name: "firewall", Replicas: 2},
	}})
	if err == nil {
		t.Fatal("mixed valid/invalid spec accepted")
	}
	if got := len(c.Vertices[0].Instances); got != 1 {
		t.Fatalf("rejected spec still scaled nat to %d instances", got)
	}
	st := ctl.Status()
	if st.TotalActions != 0 {
		t.Fatalf("rejected specs recorded %d actions", st.TotalActions)
	}
}

// TestApplySpecPartial: vertices absent from the spec keep their replica
// count (partial specs reconcile only what they name).
func TestApplySpecPartial(t *testing.T) {
	c := twoVertexChain(t, 1, 2)
	applyReplicas(t, c, "nat", 2)
	if got := c.liveReplicas(c.Vertices[0]); got != 2 {
		t.Fatalf("nat = %d, want 2", got)
	}
	if got := c.liveReplicas(c.Vertices[1]); got != 2 {
		t.Fatalf("ids = %d, want 2 (partial spec must not touch it)", got)
	}
}

// TestDrain: the admin drain verb takes one replica out of service and
// refuses to drain the last one.
func TestDrain(t *testing.T) {
	c := twoVertexChain(t, 2, 1)
	ctl := c.Controller()
	ctl.DrainGrace = 2 * time.Millisecond

	acts, err := ctl.Drain("nat")
	if err != nil {
		t.Fatalf("Drain(nat): %v", err)
	}
	if len(acts) != 1 || acts[0].Op != "scale-in" {
		t.Fatalf("Drain emitted %+v, want one scale-in", acts)
	}
	c.RunFor(10 * time.Millisecond)
	if got := c.liveReplicas(c.Vertices[0]); got != 1 {
		t.Fatalf("nat serving replicas = %d after drain, want 1", got)
	}
	if _, err := ctl.Drain("nat"); err == nil {
		t.Fatal("draining the last replica was not refused")
	}
	if _, err := ctl.Drain("nosuch"); err == nil {
		t.Fatal("draining an unknown vertex was not refused")
	}
}

// TestCurrentSpecObservesDeployment: CurrentSpec reflects live serving
// replicas (draining and crashed instances excluded) plus the immutable
// shard count and modes.
func TestCurrentSpecObservesDeployment(t *testing.T) {
	cfg := testConfig()
	cfg.StoreShards = 2
	c := New(cfg, natVertex(2, BackendCHC, store.ModeEOC))
	c.Start()
	seedNAT(c, c.Vertices[0])

	spec := c.Controller().CurrentSpec()
	if spec.StoreShards != 2 {
		t.Fatalf("StoreShards = %d, want 2", spec.StoreShards)
	}
	if len(spec.Vertices) != 1 || spec.Vertices[0].Name != "nat" ||
		spec.Vertices[0].Replicas != 2 || spec.Vertices[0].Mode != "eoc" {
		t.Fatalf("CurrentSpec vertices = %+v", spec.Vertices)
	}

	// A crashed instance no longer counts as serving.
	c.Vertices[0].Instances[1].Crash()
	if got := c.Controller().CurrentSpec().Vertices[0].Replicas; got != 1 {
		t.Fatalf("replicas after crash = %d, want 1", got)
	}
	// ...and reconciling back to 2 replaces the lost capacity.
	applyReplicas(t, c, "nat", 2)
	if got := c.liveReplicas(c.Vertices[0]); got != 2 {
		t.Fatalf("replicas after re-reconcile = %d, want 2", got)
	}
}

// TestControllerFailoverRecorded: controller-mediated failure verbs land
// in the action log alongside reconciles.
func TestControllerFailoverRecorded(t *testing.T) {
	c := New(testConfig(), natVertex(2, BackendCHC, store.ModeEOCNA))
	c.Start()
	seedNAT(c, c.Vertices[0])
	tr := smallTrace(20)
	c.RunTrace(tr, 50*time.Millisecond)

	old := c.Vertices[0].Instances[0]
	nu := c.Controller().Failover(old)
	c.RunFor(50 * time.Millisecond)
	if nu == old || c.topo.Load().dead[nu.ID] {
		t.Fatal("failover did not produce a live replacement")
	}
	st := c.Controller().Status()
	if st.TotalActions != 1 || len(st.LastActions) != 1 || st.LastActions[0].Op != "failover" {
		t.Fatalf("status after failover = %+v", st)
	}
	total, ok := c.StoreGet(store.Key{Vertex: 1, Obj: nat.ObjTotal})
	if !ok || total.Int != int64(tr.Len()) {
		t.Fatalf("total = %v,%v want %d after controller failover", total, ok, tr.Len())
	}
}

// TestTopologyVerbSequence walks one deployment through every control verb
// that publishes routing state — add, failover, failover of the
// replacement, clone, retain-faster, scale-in retirement (of the retained
// clone, then of a clone still being mirrored to) — and checks the
// snapshot after each publish against a plain model of what the
// separately locked tables used to hold: Vertex.Instances grew on add and
// clone, swapped in place on failover and never shrank; redirects chained;
// a replacement or clone signed Fig 6 vectors as the instance it stood in
// for. Every ID ever issued must keep resolving to an instance of its own
// vertex, and a published snapshot must never change again.
func TestTopologyVerbSequence(t *testing.T) {
	c := twoVertexChain(t, 2, 1)
	ctl := c.Controller()
	ctl.DrainGrace = 2 * time.Millisecond
	natV, idsV := c.Vertices[0], c.Vertices[1]

	// The model, keyed by instance ID.
	slots := map[*Vertex][]uint16{natV: {1, 2}, idsV: {3}}
	home := map[uint16]*Vertex{1: natV, 2: natV, 3: idsV}
	origin := map[uint16]uint16{1: 1, 2: 2, 3: 3}
	serving := map[uint16]uint16{1: 1, 2: 2, 3: 3}
	replica := map[uint16]uint16{}
	born := func(in *Instance, identity uint16) {
		home[in.ID], origin[in.ID], serving[in.ID] = in.vertex, identity, in.ID
	}
	redirect := func(from, to uint16) {
		for id, s := range serving {
			if s == from {
				serving[id] = to
			}
		}
	}
	failover := func(old *Instance) *Instance {
		nu := ctl.Failover(old)
		born(nu, origin[old.ID])
		for i, id := range slots[natV] {
			if id == old.ID {
				slots[natV][i] = nu.ID
			}
		}
		redirect(old.ID, nu.ID)
		return nu
	}
	clone := func(straggler *Instance) *Instance {
		cl := ctl.CloneStraggler(straggler)
		born(cl, origin[straggler.ID])
		slots[natV] = append(slots[natV], cl.ID)
		replica[straggler.ID] = cl.ID
		return cl
	}
	retireNewest := func() {
		applyReplicas(t, c, "nat", c.liveReplicas(natV)-1)
		c.RunFor(10 * time.Millisecond)
	}

	i1, i2 := natV.Instances[0], natV.Instances[1]
	var added, repl, cl *Instance
	steps := []struct {
		verb string
		do   func()
	}{
		{"add", func() {
			added = ctl.AddInstance(natV)
			born(added, added.ID)
			slots[natV] = append(slots[natV], added.ID)
		}},
		{"failover", func() { repl = failover(i1) }},
		{"failover of the replacement", func() { failover(repl) }},
		{"clone", func() { cl = clone(i2) }},
		{"retain-faster", func() {
			ctl.RetainFaster(i2, cl)
			delete(replica, i2.ID)
			redirect(i2.ID, cl.ID)
		}},
		{"scale-in retire", retireNewest},
		{"clone again", func() { cl = clone(added) }},
		{"scale-in retire of a mirroring clone", func() {
			retireNewest()
			delete(replica, added.ID)
		}},
	}

	ids := func(insts []*Instance) string {
		out := make([]uint16, len(insts))
		for i, in := range insts {
			if in != nil {
				out[i] = in.ID
			}
		}
		return fmt.Sprint(out)
	}
	dump := func(snap *topology) string {
		s := ids(snap.byID) + ids(snap.serving) + ids(snap.replica)
		for _, sl := range snap.slots {
			s += ids(sl)
		}
		return s
	}
	for _, st := range steps {
		before := c.topo.Load()
		frozen := dump(before)
		st.do()
		snap := c.topo.Load()
		if snap == before {
			t.Fatalf("%s: published nothing", st.verb)
		}
		if got := dump(before); got != frozen {
			t.Fatalf("%s: wrote to a published snapshot:\n was %s\n now %s", st.verb, frozen, got)
		}
		if issued := len(snap.byID) - 1; issued != len(home) {
			t.Fatalf("%s: %d IDs indexed, %d issued", st.verb, issued, len(home))
		}
		for id := uint16(1); int(id) < len(snap.byID); id++ {
			in, srv := c.instanceByID(id), snap.serving[id]
			if in == nil || in.ID != id || in.vertex != home[id] {
				t.Fatalf("%s: ID %d resolves to %+v", st.verb, id, in)
			}
			if in.xorID != origin[id] {
				t.Fatalf("%s: ID %d signs Fig 6 vectors as %d, want %d", st.verb, id, in.xorID, origin[id])
			}
			if srv == nil || srv.vertex != home[id] || srv.ID != serving[id] {
				t.Fatalf("%s: ID %d served by %+v, want instance %d", st.verb, id, srv, serving[id])
			}
			if rep := snap.replica[id]; (rep == nil) != (replica[id] == 0) || rep != nil && rep.ID != replica[id] {
				t.Fatalf("%s: ID %d mirrored to %+v, want %d", st.verb, id, rep, replica[id])
			}
		}
		for _, v := range c.Vertices {
			want := fmt.Sprint(slots[v])
			if got := ids(snap.slotsOf(v)); got != want {
				t.Fatalf("%s: %s slots = %s, want %s", st.verb, v.Spec.Name, got, want)
			}
			if got := ids(v.Instances); got != want {
				t.Fatalf("%s: %s.Instances = %s, want %s", st.verb, v.Spec.Name, got, want)
			}
		}
	}
}
