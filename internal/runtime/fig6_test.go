package runtime

import (
	"reflect"
	"testing"
	"time"

	"chc/internal/nf"
	"chc/internal/nf/lb"
	"chc/internal/nf/nat"
	"chc/internal/nf/portscan"
	"chc/internal/packet"
	"chc/internal/store"
	"chc/internal/transport"
)

// TestFig6TermsDoNotCancel: over the IDs a deployment actually uses
// (instances 1–16, objects 1–16) no one, two, three or four distinct Fig 6
// terms XOR to zero, so no set of up to four outstanding commits can hide
// behind a balanced vector. The raw instance<<16|obj encoding fails with
// (1,1),(2,2),(3,3).
func TestFig6TermsDoNotCancel(t *testing.T) {
	type id struct{ inst, obj uint16 }
	terms := map[uint32]id{}
	for inst := uint16(1); inst <= 16; inst++ {
		for obj := uint16(1); obj <= 16; obj++ {
			x := fig6Term(inst, obj)
			if x == 0 {
				t.Fatalf("term of %v is 0", id{inst, obj})
			}
			if prev, dup := terms[x]; dup {
				t.Fatalf("%v and %v share the term %08x", prev, id{inst, obj}, x)
			}
			terms[x] = id{inst, obj}
		}
	}
	// a^b == c is a cancelling triple; a^b == c^d for two different pairs
	// is a cancelling quadruple (pairs that share a term would be equal).
	pairs := map[uint32][2]id{}
	for x, a := range terms {
		for y, b := range terms {
			if x >= y {
				continue
			}
			if c, hit := terms[x^y]; hit {
				t.Fatalf("%v ^ %v ^ %v == 0", a, b, c)
			}
			if p, hit := pairs[x^y]; hit {
				t.Fatalf("%v ^ %v ^ %v ^ %v == 0", p[0], p[1], a, b)
			}
			pairs[x^y] = [2]id{a, b}
		}
	}
}

// threeNFSpecs is the nat→ids→lb chain the benchmark runs, one instance per
// vertex: instance IDs 1, 2 and 3 over object IDs 1 to 4, the small dense
// IDs whose raw Fig 6 terms cancel.
func threeNFSpecs(mode store.Mode) []VertexSpec {
	spec := func(name string, mk func() nf.NF) VertexSpec {
		return VertexSpec{Name: name, Make: mk, Instances: 1, Backend: BackendCHC, Mode: mode}
	}
	return []VertexSpec{
		spec("nat", func() nf.NF { return nat.New() }),
		spec("ids", func() nf.NF { return portscan.New() }),
		spec("lb", func() nf.NF { return lb.New(8) }),
	}
}

// TestRootDeleteWaitsForEveryCommit: the root keeps a clock logged, and
// sends no prune, while any commit its final vector signs is outstanding.
// The vector here signs (nat,o1), (nat,o2), (ids,o2) and (lb,o3); with raw
// terms the last three of (1,1)^(2,2)^(3,3)^(1,2) cancel and the (nat,o2)
// commit alone balanced it.
func TestRootDeleteWaitsForEveryCommit(t *testing.T) {
	c := New(testConfig(), threeNFSpecs(store.ModeEOCNA)...)
	c.Start()
	natInst, ids, tail := c.Vertices[0].Instances[0], c.Vertices[1].Instances[0], c.Vertices[2].Instances[0]
	// Log one clock: the packet is stamped and logged, and lost on its way
	// to the NAT, so nothing but this test signs or commits for it.
	c.Net().SetLinkUp(c.Root.Endpoint, natInst.Endpoint, false)
	c.Inject(&packet.Packet{Proto: packet.ProtoTCP, SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}, c.Now())
	c.RunFor(time.Millisecond)
	clock := packet.MakeClock(c.Root.ID, 1)
	if c.Root.LogSize() != 1 || c.Root.log.Get(clock) == nil {
		t.Fatalf("root logged %d clocks, want clock %d alone", c.Root.LogSize(), clock)
	}

	signed := []struct {
		in  *Instance
		obj uint16
	}{{natInst, 2}, {natInst, 1}, {ids, 2}, {tail, 3}}
	var vec uint32
	for _, s := range signed {
		vec ^= fig6Term(s.in.xorID, s.obj)
	}
	shard := c.Stores[0].Name
	prunes := func() uint64 {
		sent, _, _ := c.Net().LinkStats(c.Root.Endpoint, shard)
		return sent
	}
	before := prunes()
	c.Net().Send(transport.Message{From: tail.Endpoint, To: c.Root.Endpoint, Size: 16,
		Payload: DeleteMsg{Dels: []Delete{{Clock: clock, Vec: vec}}}})
	for n, s := range signed {
		if n > 0 && (c.Root.LogSize() != 1 || c.Root.Deleted != 0 || prunes() != before) {
			t.Fatalf("with %d of %d signed commits delivered: log=%d deleted=%d prunes=%d, want the clock still logged and unpruned",
				n, len(signed), c.Root.LogSize(), c.Root.Deleted, prunes()-before)
		}
		c.Net().Send(transport.Message{From: shard, To: c.Root.Endpoint, Size: 20,
			Payload: store.CommitMsg{Commits: []store.Commit{{Clock: clock, Instance: s.in.ID, Key: store.Key{Vertex: s.in.vertex.ID, Obj: s.obj}}}}})
		c.RunFor(time.Millisecond)
	}
	if c.Root.LogSize() != 0 || c.Root.Deleted != 1 || prunes() != before+1 {
		t.Fatalf("with every signed commit delivered: log=%d deleted=%d prunes=%d, want the clock deleted and pruned once",
			c.Root.LogSize(), c.Root.Deleted, prunes()-before)
	}
}

// TestRootPrunesPerInboundBatch: the clocks one inbound message lets the
// root delete are pruned together, one PruneMsg per shard listing them in
// the order their checks passed; a clock whose check still fails stays
// logged and unpruned; a one-entry message prunes at once, one clock in a
// message of the single-signal size. The shards are recorders here.
func TestRootPrunesPerInboundBatch(t *testing.T) {
	cfg := testConfig()
	cfg.StoreShards = 2
	cfg.ClockPersistEvery = 0 // no store calls from the root
	c := New(cfg, threeNFSpecs(store.ModeEOCNA)...)
	c.Start()
	natInst := c.Vertices[0].Instances[0]
	c.Net().SetLinkUp(c.Root.Endpoint, natInst.Endpoint, false) // log the clocks, process none
	got := map[string][]transport.Message{}
	for _, s := range c.Stores {
		s.Crash()
		c.Net().Restart(s.Name)
		// The killed server's stale inbox waiter takes the first wake-up.
		c.Net().Send(transport.Message{From: "framework", To: s.Name, Payload: 0})
		name := s.Name
		c.Net().Spawn(name+".rec", func(p transport.Proc) {
			ep := c.Net().Endpoint(name)
			for {
				m := ep.Recv(p)
				if _, ok := m.Payload.(store.PruneMsg); ok {
					got[name] = append(got[name], m)
				}
			}
		})
	}
	inject := func(n int) (clocks []uint64) {
		for i := 0; i < n; i++ {
			c.Inject(&packet.Packet{Proto: packet.ProtoTCP, SrcIP: 1, DstIP: 2, SrcPort: uint16(3 + i), DstPort: 4}, c.Now())
			c.RunFor(time.Millisecond)
			clocks = append(clocks, packet.MakeClock(c.Root.ID, c.Root.Clock()))
		}
		return clocks
	}
	send := func(payload any, size int) {
		c.Net().Send(transport.Message{From: natInst.Endpoint, To: c.Root.Endpoint, Payload: payload, Size: size})
		c.RunFor(time.Millisecond)
	}
	commit := func(clock uint64, obj uint16) store.Commit {
		return store.Commit{Clock: clock, Instance: natInst.ID, Key: store.Key{Vertex: natInst.vertex.ID, Obj: obj}}
	}
	wantPrunes := func(what string, clocks []uint64) {
		t.Helper()
		for _, s := range c.Stores {
			var want []transport.Message
			if len(clocks) > 0 {
				want = []transport.Message{{From: c.Root.Endpoint, To: s.Name, Size: 4 + 8*len(clocks),
					Payload: store.PruneMsg{Clocks: clocks}}}
			}
			if !reflect.DeepEqual(got[s.Name], want) {
				t.Fatalf("%s: %s received %+v, want %+v", what, s.Name, got[s.Name], want)
			}
			got[s.Name] = nil
		}
	}

	// Four clocks; the last one's vector also signs o2, which never commits.
	clocks := inject(4)
	o1 := fig6Term(natInst.xorID, 1)
	for i, clock := range clocks {
		vec := o1
		if i == 3 {
			vec ^= fig6Term(natInst.xorID, 2)
		}
		send(DeleteMsg{Dels: []Delete{{Clock: clock, Vec: vec}}}, 16)
	}
	if c.Root.LogSize() != 4 || len(got[c.Stores[0].Name]) != 0 {
		t.Fatalf("before any commit: log=%d prunes=%d, want 4 logged and none pruned", c.Root.LogSize(), len(got[c.Stores[0].Name]))
	}
	send(store.CommitMsg{Commits: []store.Commit{
		commit(clocks[3], 1), commit(clocks[0], 1), commit(clocks[1], 1), commit(clocks[2], 1)}}, 4+16*4)
	wantPrunes("one commit message completing three checks", clocks[:3])
	if c.Root.LogSize() != 1 || c.Root.log.Get(clocks[3]) == nil || c.Root.Deleted != 3 {
		t.Fatalf("after the batch: log=%d deleted=%d, want clock %d alone logged", c.Root.LogSize(), c.Root.Deleted, clocks[3])
	}

	// A one-entry delete whose commit came first prunes as it always did.
	fifth := inject(1)[0]
	send(store.CommitMsg{Commits: []store.Commit{commit(fifth, 1)}}, 20)
	send(DeleteMsg{Dels: []Delete{{Clock: fifth, Vec: o1}}}, 16)
	wantPrunes("a one-entry delete", []uint64{fifth})

	// Empty batches are no-ops.
	send(DeleteMsg{}, 4)
	send(store.CommitMsg{}, 4)
	wantPrunes("empty batches", nil)
}
