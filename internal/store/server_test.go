package store

import (
	"reflect"
	"testing"
	"time"

	"chc/internal/transport"
)

// stubProc is a server process on stubNet: Sleep returns at once.
type stubProc struct{}

func (stubProc) Name() string        { return "store0" }
func (stubProc) Now() transport.Time { return 0 }
func (stubProc) Sleep(time.Duration) {}

// TestServerHoldsSignalsPerBatch: a multi-op AsyncBatchMsg is answered with
// one CommitMsg to the root, listing the fresh clocks in apply order, then
// one AckMsg to the sender, listing every op applied now or before; a
// conflicted op gets neither. A single op is answered signal by signal, as
// on the DES: a merged op's k clocks as k one-entry commits, then its ack.
func TestServerHoldsSignalsPerBatch(t *testing.T) {
	net := &stubNet{keep: true}
	srv := NewServer(net, "store0", ServerConfig{RootEndpoint: "root"})
	counter, owned := Key{Vertex: 1, Obj: 1}, Key{Vertex: 1, Obj: 2, Sub: 9}
	srv.Engine().Apply(&Request{Op: OpAssociate, Key: owned, Instance: 2})
	op := func(seq uint64, req Request) AsyncOp {
		req.Instance = 1
		return AsyncOp{Req: &req, Seq: seq, From: "nfa"}
	}
	merged := func(clock uint64) Request {
		return Request{Op: OpIncr, Key: counter, Arg: IntVal(1), Clock: clock,
			Batch: []BatchEntry{{Clock: clock + 1, Delta: 1}, {Clock: clock + 2, Delta: 1}}}
	}
	commit := func(clock uint64, k Key) Commit { return Commit{Clock: clock, Instance: 1, Key: k} }
	want := func(what string, msgs ...transport.Message) {
		t.Helper()
		if len(net.sent) != len(msgs) || len(msgs) > 0 && !reflect.DeepEqual(net.sent, msgs) {
			t.Fatalf("%s: the server sent\n %+v\nwant\n %+v", what, net.sent, msgs)
		}
		net.sent = net.sent[:0]
	}

	first := op(1, Request{Op: OpIncr, Key: counter, Arg: IntVal(1), Clock: 9})
	srv.serveAsync(stubProc{}, []AsyncOp{first})
	want("a lone op",
		transport.Message{From: "store0", To: "root", Size: 20, Payload: CommitMsg{Commits: []Commit{commit(9, counter)}}},
		transport.Message{From: "store0", To: "nfa", Size: 12, Payload: AckMsg{Seqs: []uint64{1}}})

	other := Key{Vertex: 1, Obj: 3}
	srv.serveAsync(stubProc{}, []AsyncOp{
		op(2, merged(10)),
		op(3, Request{Op: OpSet, Key: other, Arg: IntVal(5), Clock: 13}),
		op(4, Request{Op: OpSet, Key: owned, Arg: IntVal(5), Clock: 14}), // instance 2 owns it
		first, // retransmitted: applied before, acked again, no commit
	})
	want("a batch of four",
		transport.Message{From: "store0", To: "root", Size: 4 + 16*4, Payload: CommitMsg{Commits: []Commit{
			commit(10, counter), commit(11, counter), commit(12, counter), commit(13, other)}}},
		transport.Message{From: "store0", To: "nfa", Size: 4 + 8*3, Payload: AckMsg{Seqs: []uint64{2, 3, 1}}})

	srv.serveAsync(stubProc{}, []AsyncOp{op(5, merged(20))})
	want("a lone merged op",
		transport.Message{From: "store0", To: "root", Size: 20, Payload: CommitMsg{Commits: []Commit{commit(20, counter)}}},
		transport.Message{From: "store0", To: "root", Size: 20, Payload: CommitMsg{Commits: []Commit{commit(21, counter)}}},
		transport.Message{From: "store0", To: "root", Size: 20, Payload: CommitMsg{Commits: []Commit{commit(22, counter)}}},
		transport.Message{From: "store0", To: "nfa", Size: 12, Payload: AckMsg{Seqs: []uint64{5}}})

	srv.serveAsync(stubProc{}, nil)
	srv.serveAsync(stubProc{}, []AsyncOp{op(6, Request{Op: OpSet, Key: owned, Arg: IntVal(1), Clock: 30}),
		op(7, Request{Op: OpSet, Key: owned, Arg: IntVal(1), Clock: 31})})
	want("an empty batch and a batch of conflicts")
	if got, _ := srv.Engine().Get(counter); got.Int != 7 {
		t.Fatalf("counter = %d, want 7 (seven increments, the retransmission absorbed)", got.Int)
	}
}
