package runtime

import (
	"testing"
	"time"

	"chc/internal/nf"
	"chc/internal/packet"
	"chc/internal/store"
	"chc/internal/transport"
)

// TestRootTap runs a chain whose off-path tap is declared before any
// on-path vertex, so it hangs off the root: the root's forward queues a
// tap copy of every stamped packet beside the packet itself. On each
// substrate the tap must process every injected packet, the sink must
// receive each packet once, and the chain must drain. On live the root's
// bursts are up to 32 packets wide, so the copies leave in multi-packet
// RouteBursts.
func TestRootTap(t *testing.T) {
	rows := []struct {
		name string
		cfg  func() ChainConfig
	}{
		{"sim", testConfig},
		{"live", LiveChainConfig},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := row.cfg()
			cfg.Seed = 7
			c := New(cfg,
				VertexSpec{Name: "tap", Make: func() nf.NF { return nf.Pass{} },
					Instances: 2, Backend: BackendTraditional, OffPath: true},
				natVertex(2, BackendCHC, store.ModeEOCNA))
			defer c.Stop()
			c.Start()
			seedNAT(c, c.Vertices[1])
			tr := smallTrace(60)
			c.RunTrace(tr, 20*time.Millisecond)
			if !c.AwaitDrained(10 * time.Second) {
				st, _ := c.QueryRootStats(time.Second)
				t.Fatalf("chain did not drain: injected=%d deleted=%d log=%d",
					st.Injected, st.Deleted, st.LogSize)
			}
			// Tap copies take no part in the delete protocol, so the root
			// can drain before the tap has caught up.
			tapped := func() (n uint64) {
				for _, in := range c.Vertices[0].Instances {
					n += in.ProcessedCount()
				}
				return n
			}
			for spent := time.Duration(0); tapped() < uint64(tr.Len()) && spent < 5*time.Second; spent += 10 * time.Millisecond {
				c.RunFor(10 * time.Millisecond)
			}
			c.Stop()
			if c.Root.Injected != uint64(tr.Len()) {
				t.Fatalf("root injected %d of %d packets", c.Root.Injected, tr.Len())
			}
			if n := tapped(); n != c.Root.Injected {
				t.Fatalf("tap processed %d of %d injected packets", n, c.Root.Injected)
			}
			if c.Sink.Received != c.Root.Injected || c.Sink.Duplicates != 0 {
				t.Fatalf("sink received %d (duplicates %d) of %d injected packets",
					c.Sink.Received, c.Sink.Duplicates, c.Root.Injected)
			}
		})
	}
}

// TestRouteBurstOnlyDecides pins the route contract: RouteBurst appends
// its deliveries to the caller's list and sends nothing; the caller's one
// SendBurst is what reaches the links. The burst holds a plain packet, a
// packet of a flow under a Fig 4 move, whose MetaLast clone goes to the
// old owner, and a packet for a slot whose straggler has a replica, which
// goes to both.
func TestRouteBurstOnlyDecides(t *testing.T) {
	c := New(testConfig(), VertexSpec{Name: "pass", Make: func() nf.NF { return nf.Pass{} },
		Instances: 2, Backend: BackendTraditional})
	c.Start()
	v := c.Vertices[0]
	a, b := v.Instances[0], v.Instances[1]
	clone := c.Controller().CloneStraggler(a)
	topo := c.topo.Load()
	// flowTo returns a packet of a flow whose partition key lands on in.
	port := uint16(1000)
	flowTo := func(in *Instance) *packet.Packet {
		for {
			port++
			pkt := &packet.Packet{SrcIP: 0x0A000001, DstIP: 0x08080808, SrcPort: port,
				DstPort: 80, Proto: packet.ProtoTCP}
			if topo.pick(v, mix(pkt.Key().Canonical().Hash())) == in {
				return pkt
			}
		}
	}
	plain, moved, mirrored := flowTo(b), flowTo(b), flowTo(a)
	c.Controller().MoveFlows(v, []uint64{moved.Key().Canonical().Hash()}, a)

	const from = "upstream"
	var out []transport.Message
	v.Splitter.RouteBurst(from, []*packet.Packet{plain, moved, mirrored}, c.Now(), &out)
	want := []*Instance{b, b, a, clone}
	if len(out) != len(want) {
		t.Fatalf("RouteBurst appended %d deliveries, want %d", len(out), len(want))
	}
	for k, in := range want {
		if out[k].To != in.Endpoint || out[k].From != from {
			t.Fatalf("delivery %d: %s -> %s, want %s -> %s", k, out[k].From, out[k].To, from, in.Endpoint)
		}
	}
	if last := out[1].Payload.(*packet.Packet); last.Meta.Flags&packet.MetaLast == 0 || last == moved {
		t.Fatal("the moved flow's packet did not leave as a MetaLast clone")
	}
	sent := func(in *Instance) uint64 {
		n, _, _ := c.Net().LinkStats(from, in.Endpoint)
		return n
	}
	for _, in := range []*Instance{a, b, clone} {
		if n := sent(in); n != 0 {
			t.Fatalf("%d sends to %s before the caller sent", n, in.Endpoint)
		}
	}
	transport.SendBurst(c.Net(), out)
	for in, n := range map[*Instance]uint64{a: 1, b: 2, clone: 1} {
		if got := sent(in); got != n {
			t.Fatalf("%d sends to %s after the caller's burst, want %d", got, in.Endpoint, n)
		}
	}
}
