package store

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"chc/internal/livenet"
	"chc/internal/transport"
)

// TestStoreUnderDupLoss: a +NA client and a server on livenet, both legs
// between them duplicating half their messages and losing one in twenty
// (delivered copies jittered, so call replies come late). The client
// issues 10 000 clocked ops over 64 keys, async increments and Sets and
// every sixteenth a blocking increment retried until answered, in rounds
// that wait for every ack. Whatever the links did, the engine ends with the
// values of a fault-free run and the root hears each op's commit exactly
// once: no duplicated or late copy of a message, a call or a reply applies
// an op twice or reads memory its sender has reused.
func TestStoreUnderDupLoss(t *testing.T) {
	clean := runDupLoss(t, transport.LinkConfig{})
	faulty := runDupLoss(t, transport.LinkConfig{DupProb: 0.5, LossProb: 0.05, Jitter: 200 * time.Microsecond})
	for sub, want := range clean {
		if got := faulty[sub]; !got.Equal(want) {
			t.Errorf("key %d: %+v under dup and loss, %+v without", sub, got, want)
		}
	}
}

// runDupLoss runs the workload with link on both legs between client and
// server (the server's link to the root stays clean) and returns the
// engine's value of every key.
func runDupLoss(t *testing.T, link transport.LinkConfig) map[uint64]Value {
	t.Helper()
	const (
		ops      = 10000
		keys     = 64
		setKeys  = 16 // keys 48..63 take Sets, one per key a round at most
		round    = 64
		blocking = 16
	)
	net := livenet.New(livenet.Config{Seed: 7})
	defer net.Shutdown()
	net.SetLink("nfa", "store0", link)
	net.SetLink("store0", "nfa", link)
	srv := NewServer(net, "store0", ServerConfig{OpService: -1, RootEndpoint: "root"})
	srv.Start()
	c := NewClient(net, ClientConfig{Vertex: 1, Instance: 1, Endpoint: "nfa", Store: "store0",
		Mode: ModeEOCNA, Decls: counterDecl, AckTimeout: time.Millisecond, RPCTimeout: 300 * time.Microsecond})

	var mu sync.Mutex
	commits := map[Commit]int{}
	net.Spawn("root", func(p transport.Proc) {
		ep := net.Endpoint("root")
		for {
			if m, ok := ep.Recv(p).Payload.(*CommitMsg); ok {
				mu.Lock()
				for _, cm := range m.Commits {
					commits[cm]++
				}
				mu.Unlock()
			}
		}
	})
	net.Spawn("nfa.loop", func(p transport.Proc) {
		ep := net.Endpoint("nfa")
		for {
			c.HandleMessage(ep.Recv(p).Payload)
		}
	})

	r := rand.New(rand.NewSource(11))
	want := map[uint64]Value{}
	issued := map[Commit]bool{}
	failed := make(chan string, 1)
	done := make(chan struct{})
	net.Spawn("nfa.worker", func(p transport.Proc) {
		defer close(done)
		for clock := uint64(1); clock <= ops; {
			set := map[uint64]bool{}
			for end := clock + round; clock < end && clock <= ops; clock++ {
				sub := uint64(r.Intn(keys))
				if sub >= keys-setKeys && set[sub] {
					sub -= setKeys // a key's second Set of the round: an increment instead
				}
				k := Key{Vertex: 1, Obj: 1, Sub: sub}
				issued[Commit{Clock: clock, Instance: 1, Key: k}] = true
				switch {
				case sub >= keys-setKeys:
					set[sub] = true
					v := IntVal(int64(clock))
					want[sub] = v
					c.Update(p, Request{Op: OpSet, Key: k, Arg: v, Clock: clock})
				case clock%blocking == 0:
					req := Request{Op: OpIncr, Key: k, Arg: IntVal(2), Clock: clock}
					for tries := 0; ; tries++ {
						if _, ok := c.UpdateBlocking(p, req); ok {
							break
						}
						if tries == 1000 {
							failed <- "a blocking increment never got an answer"
							return
						}
					}
					want[sub] = IntVal(want[sub].Int + 2)
				default:
					c.Update(p, Request{Op: OpIncr, Key: k, Arg: IntVal(1), Clock: clock})
					want[sub] = IntVal(want[sub].Int + 1)
				}
			}
			c.FlushAll()
			deadline := p.Now().Add(10 * time.Second)
			for c.PendingAcks() > 0 || c.OutPending() > 0 {
				if p.Now() > deadline {
					failed <- "the ops of a round were never all acked"
					return
				}
				p.Sleep(100 * time.Microsecond)
			}
		}
	})
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("the workload did not finish in 60 s")
	}
	select {
	case msg := <-failed:
		t.Fatal(msg)
	default:
	}
	// Every op is applied and acked, and its commit was queued at the root
	// before its ack left. A killed process drains its inbox before it
	// unwinds, so once Shutdown returns the counts are final.
	net.Shutdown()
	got := map[uint64]Value{}
	for sub := uint64(0); sub < keys; sub++ {
		v, _ := srv.Engine().Get(Key{Vertex: 1, Obj: 1, Sub: sub})
		got[sub] = v
		if !v.Equal(want[sub]) {
			t.Errorf("link %+v: key %d holds %+v, the ops issued make %+v", link, sub, v, want[sub])
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for cm, n := range commits {
		if n != 1 || !issued[cm] {
			t.Errorf("link %+v: commit %+v signalled %d times (issued: %v)", link, cm, n, issued[cm])
		}
	}
	for cm := range issued {
		if commits[cm] == 0 {
			t.Errorf("link %+v: commit %+v never signalled", link, cm)
		}
	}
	return got
}
