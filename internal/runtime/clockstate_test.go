package runtime

import (
	"slices"
	"testing"
	"time"

	"chc/internal/nf"
	"chc/internal/packet"
	"chc/internal/store"
	"chc/internal/trace"
	"chc/internal/transport"
)

// Tests of the per-clock bookkeeping (duplicate-suppression sets, the root
// packet log, the store's update log): what it holds once the chain has
// drained, and the order the root walks its log in.

// TestRootLateCommitHoldsNothing: a store commit signal that reaches the
// root after its clock's delete verdict — or at a recovered root, for a
// clock the crashed root logged — must leave nothing behind. The commit
// accumulator used to be a map beside the log, and such a commit re-created
// an entry in it that nothing ever deleted.
func TestRootLateCommitHoldsNothing(t *testing.T) {
	c := New(testConfig(), countVertex(1, store.ModeEOCNA))
	c.Start()
	c.RunTrace(smallTrace(20), 100*time.Millisecond)
	n := c.Root.Injected
	if n == 0 || c.Root.Deleted != n || c.Root.LogSize() != 0 {
		t.Fatalf("chain did not drain: injected=%d deleted=%d log=%d", n, c.Root.Deleted, c.Root.LogSize())
	}
	lateCommits := func() {
		inst := c.Vertices[0].Instances[0]
		for ctr := uint64(1); ctr <= n; ctr++ {
			c.Net().Send(transport.Message{From: StoreEndpoint, To: c.Root.Endpoint, Size: 16,
				Payload: store.CommitMsg{Commits: []store.Commit{{Clock: packet.MakeClock(c.Root.ID, ctr), Instance: inst.ID,
					Key: store.Key{Vertex: 1, Obj: ckptObjTotal}}}}})
		}
		c.RunFor(10 * time.Millisecond)
	}
	check := func(r *Root, when string) {
		t.Helper()
		if r.log.Len() != 0 || r.log.Pages() > 1 {
			t.Fatalf("%s: root holds %d entries on %d pages after %d late commits, want 0 on at most 1",
				when, r.log.Len(), r.log.Pages(), n)
		}
	}
	lateCommits()
	check(c.Root, "after delete")

	nr, _ := c.RecoverRoot()
	lateCommits()
	check(nr, "recovered root")

	// The root still works: fresh traffic is logged, balanced and deleted.
	c.RunTrace(smallTrace(20), 100*time.Millisecond)
	if nr.Injected == 0 || nr.Deleted != nr.Injected || nr.LogSize() != 0 {
		t.Fatalf("after late commits: injected=%d deleted=%d log=%d", nr.Injected, nr.Deleted, nr.LogSize())
	}
}

// TestPerClockStateIsWindowed: after N packets have drained, the per-clock
// state is a window, not a history. The root log and the stores' update
// logs are empty and down to their newest page; the duplicate-suppression
// sets that saw every clock have collapsed to a directory entry per 32 Ki
// clocks with at most the page still filling held.
func TestPerClockStateIsWindowed(t *testing.T) {
	gen := func(flows int) *trace.Trace {
		return trace.Generate(trace.Config{Seed: 5, Flows: flows, PktsPerFlowMean: 12,
			PayloadMedian: 600, Hosts: 16, Servers: 8})
	}
	for _, sub := range []struct {
		name  string
		cfg   ChainConfig
		flows int // 8000 flows are about 137 k packets
		short int // -short: the race detector slows live about fiftyfold
	}{
		{"des", testConfig(), 8000, 2400}, // short: still more than one 32 Ki page
		{"live", LiveChainConfig(), 8000, 400},
	} {
		t.Run(sub.name, func(t *testing.T) {
			tr := gen(sub.flows)
			if testing.Short() {
				tr = gen(sub.short)
			}
			c := New(sub.cfg, countVertex(1, store.ModeEOCNA))
			c.Start()
			if !runInDrainedLaps(c, tr) {
				t.Fatalf("chain did not drain: injected=%d deleted=%d", c.Root.Injected, c.Root.Deleted)
			}
			c.RunFor(50 * time.Millisecond) // the last deletes' prunes reach the stores
			c.Stop()

			n := int(c.Root.Injected)
			if n != tr.Len() || int(c.Sink.Received) != n {
				t.Fatalf("injected %d and delivered %d of %d packets", n, c.Sink.Received, tr.Len())
			}
			if c.Root.LogSize() != 0 || c.Root.log.Pages() > 1 {
				t.Errorf("root log holds %d entries on %d pages, want 0 on at most 1", c.Root.LogSize(), c.Root.log.Pages())
			}
			maxDir := (n+(32<<10)-1)/(32<<10) + 1
			checkSet := func(what string, dir, pages int) {
				t.Helper()
				if dir > maxDir || pages > 1 {
					t.Errorf("%s holds %d directory entries and %d pages after %d clocks, want at most %d and 1",
						what, dir, pages, n, maxDir)
				}
			}
			inst := c.Vertices[0].Instances[0]
			checkSet("Sink.seen", c.Sink.seen.DirLen(), c.Sink.seen.Pages())
			checkSet("Instance.seen", inst.seen.DirLen(), inst.seen.Pages())
			for _, s := range c.Stores {
				eng := s.Engine()
				logPages, prunedDir, prunedPages := eng.DupLogPages()
				if eng.PendingClocks() != 0 || logPages > 1 {
					t.Errorf("%s update log holds %d clocks on %d pages, want 0 on at most 1", s.Name, eng.PendingClocks(), logPages)
				}
				checkSet(s.Name+" pruned", prunedDir, prunedPages)
			}
		})
	}
}

// recordNF forwards every packet and records the clocks it processed, in
// order.
type recordNF struct{ clocks *[]uint64 }

func (r recordNF) Name() string           { return "record" }
func (r recordNF) Decls() []store.ObjDecl { return nil }
func (r recordNF) Process(ctx *nf.Ctx, pkt *packet.Packet) []*packet.Packet {
	*r.clocks = append(*r.clocks, pkt.Meta.Clock)
	return ctx.Emit(pkt)
}

// TestReplayWalksLogInClockOrder: replay and the retransmission sweep
// re-forward exactly the clocks still logged, in ascending clock order —
// the order they were logged in — however scattered the deletes in between
// were. The first pass is lost on a cut link so the log fills; deletes for
// two in three clocks and for one whole log page arrive straight at the
// root; then the link heals and the verb runs.
func TestReplayWalksLogInClockOrder(t *testing.T) {
	for _, verb := range []string{"replay", "sweep"} {
		t.Run(verb, func(t *testing.T) {
			var processed []uint64
			c := New(testConfig(), VertexSpec{Name: "record", Instances: 1, Backend: BackendTraditional,
				Make: func() nf.NF { return recordNF{&processed} }})
			c.Start()
			inst := c.Vertices[0].Instances[0]
			c.Net().SetLinkUp(c.Root.Endpoint, inst.Endpoint, false)
			tr := smallTrace(500)
			c.RunTrace(tr, 100*time.Millisecond)
			n := c.Root.Injected
			if n < 2500 || int(n) != tr.Len() || c.Root.LogSize() != int(n) || len(processed) != 0 {
				t.Fatalf("first pass: injected=%d of %d logged=%d processed=%d, want about 3000, all logged, none processed",
					n, tr.Len(), c.Root.LogSize(), len(processed))
			}

			var survivors []uint64
			for ctr := uint64(1); ctr <= n; ctr++ {
				clock := packet.MakeClock(c.Root.ID, ctr)
				if ctr%3 == 1 && (ctr < 1024 || ctr >= 2048) {
					survivors = append(survivors, clock)
					continue
				}
				c.Net().Send(transport.Message{From: inst.Endpoint, To: c.Root.Endpoint, Size: 16,
					Payload: DeleteMsg{Dels: []Delete{{Clock: clock}}}})
			}
			c.RunFor(2 * rootRetransmitAge)
			if c.Root.LogSize() != len(survivors) {
				t.Fatalf("after deletes: %d logged, want %d", c.Root.LogSize(), len(survivors))
			}

			c.Net().SetLinkUp(c.Root.Endpoint, inst.Endpoint, true)
			var cmd any = SweepCmd{}
			if verb == "replay" {
				cmd = ReplayCmd{CloneID: inst.ID}
			}
			c.Net().Send(transport.Message{From: "framework", To: c.Root.Endpoint, Payload: cmd, Size: 16})
			c.RunFor(100 * time.Millisecond)

			if !slices.Equal(processed, survivors) {
				t.Fatalf("%s re-forwarded %d clocks, want the %d survivors in ascending order\n got  %x\n want %x",
					verb, len(processed), len(survivors), processed, survivors)
			}
			if c.Root.Replayed != uint64(len(survivors)) || c.Root.LogSize() != 0 {
				t.Fatalf("after %s: replayed=%d logged=%d, want %d and 0", verb, c.Root.Replayed, c.Root.LogSize(), len(survivors))
			}
		})
	}
}
