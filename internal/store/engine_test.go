package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func k(v, o uint16, sub uint64) Key { return Key{Vertex: v, Obj: o, Sub: sub} }

func TestIncrAndGet(t *testing.T) {
	e := NewEngine(4)
	key := k(1, 1, 0)
	for i := 1; i <= 5; i++ {
		rep := e.Apply(&Request{Op: OpIncr, Key: key, Arg: IntVal(2)})
		if !rep.OK || rep.Val.Int != int64(i*2) {
			t.Fatalf("incr #%d = %+v", i, rep)
		}
	}
	rep := e.Apply(&Request{Op: OpGet, Key: key})
	if !rep.OK || rep.Val.Int != 10 {
		t.Fatalf("get = %+v", rep)
	}
}

func TestDecrement(t *testing.T) {
	e := NewEngine(1)
	key := k(1, 1, 0)
	e.Apply(&Request{Op: OpSet, Key: key, Arg: IntVal(10)})
	rep := e.Apply(&Request{Op: OpIncr, Key: key, Arg: IntVal(-3)})
	if rep.Val.Int != 7 {
		t.Fatalf("decr = %+v", rep)
	}
}

func TestSetGetDelete(t *testing.T) {
	e := NewEngine(4)
	key := k(2, 1, 42)
	if rep := e.Apply(&Request{Op: OpGet, Key: key}); rep.OK {
		t.Fatal("get of absent key succeeded")
	}
	e.Apply(&Request{Op: OpSet, Key: key, Arg: StringVal("hello")})
	rep := e.Apply(&Request{Op: OpGet, Key: key})
	if !rep.OK || string(rep.Val.Bytes) != "hello" {
		t.Fatalf("get = %+v", rep)
	}
	if rep := e.Apply(&Request{Op: OpDelete, Key: key}); !rep.OK {
		t.Fatal("delete reported missing")
	}
	if rep := e.Apply(&Request{Op: OpGet, Key: key}); rep.OK {
		t.Fatal("get after delete succeeded")
	}
}

func TestListPushPop(t *testing.T) {
	e := NewEngine(4)
	key := k(1, 2, 0)
	// NAT port pool: push 3 ports, pop them FIFO.
	for _, p := range []int64{5000, 5001, 5002} {
		e.Apply(&Request{Op: OpPushList, Key: key, Arg: IntVal(p)})
	}
	for _, want := range []int64{5000, 5001, 5002} {
		rep := e.Apply(&Request{Op: OpPopList, Key: key})
		if !rep.OK || rep.Val.Int != want {
			t.Fatalf("pop = %+v, want %d", rep, want)
		}
	}
	if rep := e.Apply(&Request{Op: OpPopList, Key: key}); rep.OK {
		t.Fatal("pop from empty list succeeded")
	}
}

func TestCAS(t *testing.T) {
	e := NewEngine(4)
	key := k(1, 3, 0)
	e.Apply(&Request{Op: OpSet, Key: key, Arg: IntVal(1)})
	rep := e.Apply(&Request{Op: OpCAS, Key: key, Arg: IntVal(1), Arg2: IntVal(2)})
	if !rep.OK || rep.Val.Int != 2 {
		t.Fatalf("cas match = %+v", rep)
	}
	rep = e.Apply(&Request{Op: OpCAS, Key: key, Arg: IntVal(1), Arg2: IntVal(3)})
	if rep.OK || rep.Val.Int != 2 {
		t.Fatalf("cas mismatch = %+v", rep)
	}
}

func TestMapOps(t *testing.T) {
	e := NewEngine(4)
	key := k(4, 1, 0) // LB per-server connection counts
	e.Apply(&Request{Op: OpMapSet, Key: key, Field: "s1", Arg: IntVal(3)})
	e.Apply(&Request{Op: OpMapSet, Key: key, Field: "s2", Arg: IntVal(1)})
	e.Apply(&Request{Op: OpMapSet, Key: key, Field: "s3", Arg: IntVal(2)})
	// Least-loaded pick: s2, whose count then becomes 2.
	rep := e.Apply(&Request{Op: OpMapMinIncr, Key: key, Arg: IntVal(1)})
	if !rep.OK || string(rep.Val.Bytes) != "s2" {
		t.Fatalf("minincr = %+v, want s2", rep)
	}
	rep = e.Apply(&Request{Op: OpMapGet, Key: key, Field: "s2"})
	if rep.Val.Int != 2 {
		t.Fatalf("s2 load = %+v", rep)
	}
	// Tie between s2 and s3 (both 2): lexicographically-smaller key wins.
	rep = e.Apply(&Request{Op: OpMapMinIncr, Key: key, Arg: IntVal(1)})
	if string(rep.Val.Bytes) != "s2" {
		t.Fatalf("tie-break = %+v, want s2", rep)
	}
	if rep := e.Apply(&Request{Op: OpMapGet, Key: key, Field: "absent"}); rep.OK {
		t.Fatal("mapget of absent field succeeded")
	}
}

func TestMapIncr(t *testing.T) {
	e := NewEngine(4)
	key := k(4, 2, 9)
	rep := e.Apply(&Request{Op: OpMapIncr, Key: key, Field: "f", Arg: IntVal(5)})
	if rep.Val.Int != 5 {
		t.Fatalf("mapincr = %+v", rep)
	}
	rep = e.Apply(&Request{Op: OpMapIncr, Key: key, Field: "f", Arg: IntVal(-2)})
	if rep.Val.Int != 3 {
		t.Fatalf("mapincr = %+v", rep)
	}
}

func TestCustomOp(t *testing.T) {
	e := NewEngine(4)
	e.RegisterCustom("double", func(cur *Value, arg Value) (Value, bool) {
		cur.Kind = KindInt
		cur.Int = cur.Int*2 + arg.Int
		return *cur, true
	})
	key := k(1, 9, 0)
	e.Apply(&Request{Op: OpSet, Key: key, Arg: IntVal(5)})
	rep := e.Apply(&Request{Op: OpCustom, Custom: "double", Key: key, Arg: IntVal(1)})
	if !rep.OK || rep.Val.Int != 11 {
		t.Fatalf("custom = %+v", rep)
	}
	if rep := e.Apply(&Request{Op: OpCustom, Custom: "missing", Key: key}); rep.OK {
		t.Fatal("unknown custom op succeeded")
	}
}

func TestOwnership(t *testing.T) {
	e := NewEngine(4)
	key := k(1, 1, 777) // per-flow object
	// Instance 3 associates; instance 4 must be rejected.
	if rep := e.Apply(&Request{Op: OpAssociate, Key: key, Instance: 3}); !rep.OK {
		t.Fatalf("associate = %+v", rep)
	}
	if rep := e.Apply(&Request{Op: OpIncr, Key: key, Arg: IntVal(1), Instance: 3}); !rep.OK {
		t.Fatalf("owner write = %+v", rep)
	}
	if rep := e.Apply(&Request{Op: OpIncr, Key: key, Arg: IntVal(1), Instance: 4}); !rep.Conflict {
		t.Fatalf("non-owner write = %+v, want conflict", rep)
	}
	if rep := e.Apply(&Request{Op: OpAssociate, Key: key, Instance: 4}); !rep.Conflict {
		t.Fatalf("steal associate = %+v, want conflict", rep)
	}
	// Handover: 3 disassociates, 4 associates, 4 can now write.
	if rep := e.Apply(&Request{Op: OpDisassoc, Key: key, Instance: 3}); !rep.OK {
		t.Fatalf("disassoc = %+v", rep)
	}
	if rep := e.Apply(&Request{Op: OpAssociate, Key: key, Instance: 4}); !rep.OK {
		t.Fatalf("re-associate = %+v", rep)
	}
	rep := e.Apply(&Request{Op: OpIncr, Key: key, Arg: IntVal(1), Instance: 4})
	if !rep.OK || rep.Val.Int != 2 {
		t.Fatalf("new-owner write = %+v (state lost in handover?)", rep)
	}
}

func TestSharedKeyMultiInstance(t *testing.T) {
	e := NewEngine(4)
	key := k(1, 5, 0) // cross-flow counter: never associated
	e.Apply(&Request{Op: OpIncr, Key: key, Arg: IntVal(1), Instance: 1})
	rep := e.Apply(&Request{Op: OpIncr, Key: key, Arg: IntVal(1), Instance: 2})
	if !rep.OK || rep.Val.Int != 2 {
		t.Fatalf("shared incr across instances = %+v", rep)
	}
}

func TestDuplicateSuppression(t *testing.T) {
	e := NewEngine(4)
	key := k(1, 1, 0)
	// Packet clock 99 increments a counter; the replayed duplicate must be
	// emulated, returning the same result without re-applying (Fig 5b).
	r1 := e.Apply(&Request{Op: OpIncr, Key: key, Arg: IntVal(1), Clock: 99, Instance: 1})
	if r1.Val.Int != 1 || r1.Emulated {
		t.Fatalf("first = %+v", r1)
	}
	r2 := e.Apply(&Request{Op: OpIncr, Key: key, Arg: IntVal(1), Clock: 99, Instance: 1})
	if !r2.Emulated || r2.Val.Int != 1 {
		t.Fatalf("replay = %+v, want emulated val 1", r2)
	}
	if got, _ := e.Get(key); got.Int != 1 {
		t.Fatalf("state = %v, want 1 (duplicate applied!)", got)
	}
	// After the root deletes the packet, the log is pruned but a tombstone
	// remains: the packet fully committed and left the chain, so a late
	// re-executed op with its clock (a replayed copy racing the first
	// pass's completion) must be absorbed, never re-applied. Clocks are
	// never recycled (RecoverRoot restarts past every assigned clock).
	e.PruneClock(99)
	r3 := e.Apply(&Request{Op: OpIncr, Key: key, Arg: IntVal(1), Clock: 99, Instance: 1})
	if !r3.Emulated {
		t.Fatalf("post-prune = %+v, want emulated (tombstoned clock re-applied!)", r3)
	}
	if got, _ := e.Get(key); got.Int != 1 {
		t.Fatalf("state = %v, want 1 (completed packet double-applied)", got)
	}
	// A different, never-pruned clock still applies.
	r4 := e.Apply(&Request{Op: OpIncr, Key: key, Arg: IntVal(1), Clock: 100, Instance: 1})
	if r4.Emulated || r4.Val.Int != 2 {
		t.Fatalf("fresh clock = %+v", r4)
	}
}

func TestDuplicateSuppressionPerKey(t *testing.T) {
	// One packet updates two objects; replay after only one was applied must
	// re-execute exactly the missing one (the straggler/clone scenario of
	// Fig 5: pkt_count updated, con<key> not).
	e := NewEngine(4)
	pktCount := k(1, 1, 0)
	conn := k(1, 2, 5)
	e.Apply(&Request{Op: OpIncr, Key: pktCount, Arg: IntVal(1), Clock: 7, Instance: 1})
	// Replay of the packet: both updates re-issued.
	r1 := e.Apply(&Request{Op: OpIncr, Key: pktCount, Arg: IntVal(1), Clock: 7, Instance: 1})
	r2 := e.Apply(&Request{Op: OpIncr, Key: conn, Arg: IntVal(1), Clock: 7, Instance: 1})
	if !r1.Emulated {
		t.Fatal("pkt_count replay not emulated")
	}
	if r2.Emulated {
		t.Fatal("first conn update wrongly emulated")
	}
	pc, _ := e.Get(pktCount)
	cn, _ := e.Get(conn)
	if pc.Int != 1 || cn.Int != 1 {
		t.Fatalf("state = %v/%v, want 1/1", pc, cn)
	}
}

// TestReplayReadsWhatItsFirstPassRead: a NAT's FIN reads the flow's port
// mapping and deletes it. A re-run of the FIN on another instance (the
// failover replacement) must read the mapping the first pass read, else it
// skips the port push and the delete and signs a vector the first pass's
// commits never balance. Two first passes: one read at the store before
// another FIN of the connection deleted the mapping, one read its cache
// and deleted the mapping itself. Only reads of that clock from another
// instance see the old value, and only until the root deletes the packet.
func TestReplayReadsWhatItsFirstPassRead(t *testing.T) {
	e := NewEngine(4)
	conn := k(1, 4, 77)
	get := func(clock uint64, inst uint16) Reply {
		return e.Apply(&Request{Op: OpGet, Key: conn, Clock: clock, Instance: inst})
	}
	wantRead := func(what string, r Reply, ok bool) {
		t.Helper()
		if r.OK != ok || ok && r.Val.Int != 10042 {
			t.Fatalf("%s read %+v, want found=%v", what, r, ok)
		}
	}

	// Clocks 8 and 9 both read the mapping; 8 deletes it; the crash takes
	// 9's delete. 9's re-run reads what 9 read, 8's what 8 deleted.
	e.Apply(&Request{Op: OpSet, Key: conn, Arg: IntVal(10042), Clock: 3, Instance: 1})
	wantRead("first pass of 8", get(8, 1), true)
	wantRead("first pass of 9", get(9, 1), true)
	if del := e.Apply(&Request{Op: OpDelete, Key: conn, Clock: 8, Instance: 1}); !del.OK || !del.Val.IsNil() {
		t.Fatalf("delete = %+v, want OK with no value", del)
	}
	wantRead("the first instance's own second read of 9", get(9, 1), false)
	wantRead("the re-run of 8", get(8, 7), true)
	wantRead("the re-run of 9", get(9, 7), true)
	wantRead("a second re-run of 9", get(9, 9), true)
	wantRead("a later packet", get(10, 7), false)
	wantRead("an unclocked read", get(0, 7), false)
	if del := e.Apply(&Request{Op: OpDelete, Key: conn, Clock: 8, Instance: 7}); !del.Emulated || !del.OK || !del.Val.IsNil() {
		t.Fatalf("re-run delete of 8 = %+v, want emulated, OK, no value", del)
	}
	if del := e.Apply(&Request{Op: OpDelete, Key: conn, Clock: 9, Instance: 7}); del.Emulated || del.OK {
		t.Fatalf("re-run delete of 9 = %+v, want applied to the absent key", del)
	}

	// Clock 20 read its cache (the store never saw the read) and deleted
	// the mapping; its re-run reads the deleted value.
	e.Apply(&Request{Op: OpSet, Key: conn, Arg: IntVal(10042), Clock: 12, Instance: 1})
	e.Apply(&Request{Op: OpDelete, Key: conn, Clock: 20, Instance: 1})
	wantRead("the deleting instance", get(20, 1), false)
	wantRead("the re-run of 20", get(20, 7), true)
	if _, ok := e.Get(conn); ok {
		t.Fatal("a read brought the key back")
	}
	for _, c := range []uint64{8, 9, 20} {
		e.PruneClock(c)
		wantRead("a re-run after the prune", get(c, 9), false)
	}
	if n := e.PendingClocks(); n != 3 {
		t.Fatalf("%d clocks logged after the prunes, want 3 (the Sets', clock 10's read)", n)
	}
}

func TestNonDetMemoization(t *testing.T) {
	e := NewEngine(4)
	key := k(1, 8, 0)
	r1 := e.Apply(&Request{Op: OpNonDet, Key: key, NDKind: NDRandom, Clock: 5, Instance: 1})
	r2 := e.Apply(&Request{Op: OpNonDet, Key: key, NDKind: NDRandom, Clock: 5, Instance: 1})
	if r1.Val.Int != r2.Val.Int {
		t.Fatalf("nondet replay diverged: %d vs %d", r1.Val.Int, r2.Val.Int)
	}
	if !r2.Emulated {
		t.Fatal("replayed nondet not emulated")
	}
	// Different clock: fresh value (with overwhelming probability).
	r3 := e.Apply(&Request{Op: OpNonDet, Key: key, NDKind: NDRandom, Clock: 6, Instance: 1})
	if r3.Val.Int == r1.Val.Int {
		t.Fatal("different packets got identical random values")
	}
}

func TestNonDetTime(t *testing.T) {
	e := NewEngine(1)
	now := int64(12345)
	e.SetNowFn(func() int64 { return now })
	r := e.Apply(&Request{Op: OpNonDet, Key: k(1, 8, 1), NDKind: NDTime, Clock: 9})
	if r.Val.Int != 12345 {
		t.Fatalf("ndtime = %+v", r)
	}
	now = 99999
	// Same clock: memoized original time.
	r = e.Apply(&Request{Op: OpNonDet, Key: k(1, 8, 1), NDKind: NDTime, Clock: 9})
	if r.Val.Int != 12345 || !r.Emulated {
		t.Fatalf("ndtime replay = %+v", r)
	}
}

func TestTSTracking(t *testing.T) {
	e := NewEngine(4)
	e.Apply(&Request{Op: OpIncr, Key: k(1, 1, 0), Arg: IntVal(1), Clock: 10, Instance: 1})
	e.Apply(&Request{Op: OpIncr, Key: k(1, 1, 0), Arg: IntVal(1), Clock: 20, Instance: 2})
	e.Apply(&Request{Op: OpIncr, Key: k(1, 2, 0), Arg: IntVal(1), Clock: 30, Instance: 1})
	ts := e.TS()
	if ts[1] != 30 || ts[2] != 20 {
		t.Fatalf("TS = %v", ts)
	}
	rep := e.Apply(&Request{Op: OpGet, Key: k(1, 1, 0), WantTS: true})
	if rep.TS[1] != 30 || rep.TS[2] != 20 {
		t.Fatalf("read TS = %v", rep.TS)
	}
}

func TestSnapshotRestore(t *testing.T) {
	e := NewEngine(4)
	e.Apply(&Request{Op: OpIncr, Key: k(1, 1, 0), Arg: IntVal(7), Clock: 3, Instance: 1})
	e.Apply(&Request{Op: OpSet, Key: k(1, 2, 5), Arg: StringVal("x"), Instance: 2})
	e.Apply(&Request{Op: OpAssociate, Key: k(1, 2, 5), Instance: 2})
	snap := e.Snapshot()

	f := NewEngine(4)
	f.Restore(snap)
	if v, ok := f.Get(k(1, 1, 0)); !ok || v.Int != 7 {
		t.Fatalf("restored counter = %v,%v", v, ok)
	}
	if f.Owner(k(1, 2, 5)) != 2 {
		t.Fatalf("restored owner = %d", f.Owner(k(1, 2, 5)))
	}
	if f.TS()[1] != 3 {
		t.Fatalf("restored TS = %v", f.TS())
	}
	// Snapshot must be a deep copy: mutating the original afterwards must
	// not affect the restored engine.
	e.Apply(&Request{Op: OpIncr, Key: k(1, 1, 0), Arg: IntVal(1)})
	if v, _ := f.Get(k(1, 1, 0)); v.Int != 7 {
		t.Fatal("snapshot aliases live state")
	}
}

// TestSnapshotHoldsEveryKey: a snapshot (a checkpoint's content) holds
// every vertex's keys, framework ones included, whatever their scope.
func TestSnapshotHoldsEveryKey(t *testing.T) {
	e := NewEngine(4)
	e.Apply(&Request{Op: OpSet, Key: k(0, 1, 0), Arg: IntVal(1)})
	e.Apply(&Request{Op: OpSet, Key: k(1, 1, 0), Arg: IntVal(2)})
	e.Apply(&Request{Op: OpSet, Key: k(2, 1, 9), Arg: IntVal(3)})
	if snap := e.Snapshot(); len(snap.Entries) != 3 {
		t.Fatalf("snapshot has %d entries, want 3", len(snap.Entries))
	}
}

func TestHooksCommitAndUpdate(t *testing.T) {
	e := NewEngine(4)
	var commits []string
	var updates []string
	e.SetHooks(Hooks{
		OnCommit: func(clock uint64, inst uint16, key Key) {
			commits = append(commits, fmt.Sprintf("c%d/i%d/%s", clock, inst, key))
		},
		OnUpdate: func(key Key, val Value, by uint16) {
			updates = append(updates, fmt.Sprintf("%s=%s", key, val))
		},
	})
	e.Apply(&Request{Op: OpIncr, Key: k(1, 1, 0), Arg: IntVal(1), Clock: 5, Instance: 2})
	e.Apply(&Request{Op: OpGet, Key: k(1, 1, 0)}) // reads must not fire hooks
	if len(commits) != 1 || commits[0] != "c5/i2/v1/o1/0" {
		t.Fatalf("commits = %v", commits)
	}
	if len(updates) != 1 {
		t.Fatalf("updates = %v", updates)
	}
}

// TestFailedMutationCommits: a mutating op with a clock commits whether or
// not it changed the value (the NF signed it on issue), and only an
// ownership conflict keeps it from committing.
func TestFailedMutationCommits(t *testing.T) {
	e := NewEngine(4)
	var commits []uint64
	e.SetHooks(Hooks{OnCommit: func(clock uint64, _ uint16, _ Key) {
		commits = append(commits, clock)
	}})
	if rep := e.Apply(&Request{Op: OpDelete, Key: k(1, 1, 3), Clock: 5, Instance: 2}); rep.OK {
		t.Fatalf("delete of an absent key = %+v, want !OK", rep)
	}
	e.Apply(&Request{Op: OpAssociate, Key: k(1, 1, 4), Instance: 3})
	if rep := e.Apply(&Request{Op: OpSet, Key: k(1, 1, 4), Arg: IntVal(1), Clock: 6, Instance: 2}); !rep.Conflict {
		t.Fatalf("set of a key owned elsewhere = %+v, want a conflict", rep)
	}
	if len(commits) != 1 || commits[0] != 5 {
		t.Fatalf("commits = %v, want [5]: the failed delete, not the conflicted set", commits)
	}
}

// TestFailedMutationReplayCommitsOnce: a replayed or retransmitted copy of
// a failed mutation is emulated with the logged failure, even when the
// state has changed so that it would now succeed, and does not commit a
// second time (the root XORs commits, and a second one would cancel the
// first).
func TestFailedMutationReplayCommitsOnce(t *testing.T) {
	for _, op := range []Op{OpDelete, OpPopList} {
		t.Run(op.String(), func(t *testing.T) {
			e := NewEngine(4)
			var commits []uint64
			e.SetHooks(Hooks{OnCommit: func(clock uint64, _ uint16, _ Key) {
				commits = append(commits, clock)
			}})
			key := k(1, 1, 3)
			if rep := e.Apply(&Request{Op: op, Key: key, Clock: 5, Instance: 2}); rep.OK || rep.Emulated {
				t.Fatalf("first %v on an absent key = %+v, want a failed, applied reply", op, rep)
			}
			// Unclocked, so it commits nothing: the key now exists and the
			// op would succeed if it ran again.
			e.Apply(&Request{Op: OpPushList, Key: key, Arg: IntVal(7)})
			if rep := e.Apply(&Request{Op: op, Key: key, Clock: 5, Instance: 2}); rep.OK || !rep.Emulated {
				t.Fatalf("replayed %v = %+v, want the logged failure, emulated", op, rep)
			}
			if len(commits) != 1 || commits[0] != 5 {
				t.Fatalf("commits = %v, want [5]: the replay must not commit again", commits)
			}
			if _, ok := e.Get(key); !ok {
				t.Fatal("the replay re-applied: the key pushed since is gone")
			}
		})
	}
}

func TestOwnerChangeHook(t *testing.T) {
	e := NewEngine(4)
	var changes []uint16
	e.SetHooks(Hooks{OnOwnerChange: func(key Key, owner uint16) { changes = append(changes, owner) }})
	e.Apply(&Request{Op: OpAssociate, Key: k(1, 1, 9), Instance: 3})
	e.Apply(&Request{Op: OpDisassoc, Key: k(1, 1, 9), Instance: 3})
	if len(changes) != 2 || changes[0] != 3 || changes[1] != 0 {
		t.Fatalf("owner changes = %v", changes)
	}
}

// TestConcurrentIncrements: concurrent offloaded increments from many
// goroutines serialize to the exact sum (Theorem B.1.1: any interleaving is
// reachable; for commutative increments all interleavings give the sum).
func TestConcurrentIncrements(t *testing.T) {
	e := NewEngine(16)
	key := k(1, 1, 0)
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				e.Apply(&Request{Op: OpIncr, Key: key, Arg: IntVal(1)})
			}
		}()
	}
	wg.Wait()
	if v, _ := e.Get(key); v.Int != goroutines*per {
		t.Fatalf("sum = %d, want %d", v.Int, goroutines*per)
	}
}

// TestConcurrentPopDisjoint: concurrent pops return disjoint values — the
// store serializes ops so no port is handed to two NAT instances.
func TestConcurrentPopDisjoint(t *testing.T) {
	e := NewEngine(16)
	key := k(1, 2, 0)
	const n = 16000
	for i := int64(0); i < n; i++ {
		e.Apply(&Request{Op: OpPushList, Key: key, Arg: IntVal(i)})
	}
	var mu sync.Mutex
	seen := make(map[int64]int)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				rep := e.Apply(&Request{Op: OpPopList, Key: key})
				if !rep.OK {
					return
				}
				mu.Lock()
				seen[rep.Val.Int]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != n {
		t.Fatalf("popped %d distinct, want %d", len(seen), n)
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("value %d popped %d times", v, c)
		}
	}
}

// Property: replaying any subset of clocked updates never changes final
// state (idempotence under duplicate suppression).
func TestReplayIdempotenceProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(func(seed int64, nOps uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nOps)%40 + 5
		type op struct{ req Request }
		ops := make([]op, n)
		for i := range ops {
			ops[i] = op{Request{
				Op:       OpIncr,
				Key:      k(1, uint16(r.Intn(3)+1), uint64(r.Intn(4))),
				Arg:      IntVal(int64(r.Intn(10) + 1)),
				Clock:    uint64(i + 1),
				Instance: uint16(r.Intn(3) + 1),
			}}
		}
		run := func(replayEvery bool) map[Key]int64 {
			e := NewEngine(4)
			for i := range ops {
				req := ops[i].req
				e.Apply(&req)
				if replayEvery {
					dup := ops[i].req
					e.Apply(&dup) // duplicate of the same packet clock
				}
			}
			out := make(map[Key]int64)
			for i := range ops {
				if v, ok := e.Get(ops[i].req.Key); ok {
					out[ops[i].req.Key] = v.Int
				}
			}
			return out
		}
		a, b := run(false), run(true)
		if len(a) != len(b) {
			return false
		}
		for key, v := range a {
			if b[key] != v {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: cross-instance shared updates reach a state reachable by a
// single-instance serial execution (Theorem B.1.1) — for increment-only
// workloads the final value equals the serial sum regardless of order.
func TestSharedUpdateConsistencyProperty(t *testing.T) {
	if err := quick.Check(func(deltas []int8) bool {
		e := NewEngine(8)
		key := k(1, 1, 0)
		var want int64
		var wg sync.WaitGroup
		for _, d := range deltas {
			want += int64(d)
			d := d
			wg.Add(1)
			go func() {
				defer wg.Done()
				e.Apply(&Request{Op: OpIncr, Key: key, Arg: IntVal(int64(d))})
			}()
		}
		wg.Wait()
		got, ok := e.Get(key)
		if len(deltas) == 0 {
			return !ok
		}
		return got.Int == want
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineIncr(b *testing.B) {
	e := NewEngine(8)
	req := Request{Op: OpIncr, Key: k(1, 1, 0), Arg: IntVal(1)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Apply(&req)
	}
}

func BenchmarkEngineGet(b *testing.B) {
	e := NewEngine(8)
	e.Apply(&Request{Op: OpSet, Key: k(1, 1, 0), Arg: IntVal(1)})
	req := Request{Op: OpGet, Key: k(1, 1, 0)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Apply(&req)
	}
}

func BenchmarkEngineParallelIncr(b *testing.B) {
	e := NewEngine(64)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		var i uint64
		for pb.Next() {
			req := Request{Op: OpIncr, Key: k(1, 1, i%1024), Arg: IntVal(1)}
			e.Apply(&req)
			i++
		}
	})
}

func TestBatchIntraBatchClockDedup(t *testing.T) {
	// A replayed packet re-executed at an instance can re-issue an op whose
	// first-pass twin is still unflushed in the same coalesce buffer: the
	// batch then carries the SAME clock twice. Exactly one entry may apply
	// (and exactly one commit signal fire), or the packet's XOR check
	// self-cancels and wedges.
	e := NewEngine(4)
	var commits []uint64
	e.SetHooks(Hooks{OnCommit: func(clock uint64, _ uint16, _ Key) {
		commits = append(commits, clock)
	}})
	key := k(1, 1, 0)
	rep := e.Apply(&Request{Op: OpIncr, Key: key, Arg: IntVal(1), Clock: 7, Instance: 1,
		Batch: []BatchEntry{{Clock: 8, Delta: 1}, {Clock: 7, Delta: 1}, {Clock: 9, Delta: 1}}})
	if !rep.OK {
		t.Fatalf("batch = %+v", rep)
	}
	if got, _ := e.Get(key); got.Int != 3 {
		t.Fatalf("state = %v, want 3 (clock 7 must apply once)", got)
	}
	want := map[uint64]int{7: 1, 8: 1, 9: 1}
	got := map[uint64]int{}
	for _, c := range commits {
		got[c]++
	}
	for c, n := range want {
		if got[c] != n {
			t.Fatalf("commit count for clock %d = %d, want %d (commits %v)", c, got[c], n, commits)
		}
	}
}

// listServer returns a server on a stub transport whose engine holds an
// n-element list at the returned key: the NAT's port pool in miniature.
func listServer(n int) (*Server, *stubNet, Key) {
	net := &stubNet{keep: true}
	srv := NewServer(net, "store0", DefaultServerConfig())
	key := k(1, 1, 0)
	list := make([]int64, n)
	for i := range list {
		list[i] = int64(i)
	}
	srv.Engine().Apply(&Request{Op: OpSet, Key: key, Arg: ListVal(list...)})
	return srv, net, key
}

// TestApplyNoListenerCopiesNothing: with no callback registered on the key
// a mutation does not copy the post-op value for OnUpdate, for a single op
// and a coalesced increment alike, and the coalesced path keeps no scratch
// on the heap.
func TestApplyNoListenerCopiesNothing(t *testing.T) {
	srv, net, key := listServer(10000)
	pop := Request{Op: OpPopList, Key: key, Instance: 1}
	if a := testing.AllocsPerRun(100, func() { srv.Engine().Apply(&pop) }); a != 0 {
		t.Errorf("pop from a 10000-element list with no listener allocates %v times, want 0", a)
	}
	// The coalesced path: a map big enough that copying it would show.
	mkey := k(1, 2, 0)
	for i := 0; i < 1000; i++ {
		srv.Engine().Apply(&Request{Op: OpMapSet, Key: mkey, Field: fmt.Sprint("srv", i), Arg: IntVal(0)})
	}
	batch := Request{Op: OpMapIncr, Key: mkey, Field: "srv7", Arg: IntVal(1), Instance: 1,
		Batch: []BatchEntry{{Delta: 1}, {Delta: 1}}}
	a := testing.AllocsPerRun(100, func() { srv.Engine().Apply(&batch) })
	t.Logf("batched incr on a 1000-field map with no listener: %v allocs", a)
	if a != 0 {
		t.Errorf("batched incr on a 1000-field map with no listener allocates %v times, want 0", a)
	}
	if len(net.sent) != 0 {
		t.Fatalf("%d messages sent with nobody registered", len(net.sent))
	}
}

// TestApplyListenerGetsPostOpValue: a registered callback still receives
// exactly the value the op left behind, as a copy the engine no longer
// aliases, for a single op and a coalesced increment; the updater itself is
// skipped.
func TestApplyListenerGetsPostOpValue(t *testing.T) {
	srv, net, key := listServer(4)
	srv.registerCallback(key, 2, "nfb")
	srv.registerCallback(key, 1, "nfa")
	srv.Engine().Apply(&Request{Op: OpPushList, Key: key, Arg: IntVal(99), Instance: 1})
	if len(net.sent) != 1 || net.sent[0].To != "nfb" {
		t.Fatalf("sent = %+v, want one callback to nfb", net.sent)
	}
	cb := net.sent[0].Payload.(CallbackMsg)
	if want := ListVal(0, 1, 2, 3, 99); cb.Key != key || !cb.Val.Equal(want) {
		t.Fatalf("callback = %v %v, want %v %v", cb.Key, cb.Val, key, want)
	}
	srv.Engine().Apply(&Request{Op: OpPopList, Key: key, Instance: 1})
	if want := ListVal(0, 1, 2, 3, 99); !cb.Val.Equal(want) {
		t.Fatalf("callback value changed to %v after a later op: it aliases the engine's", cb.Val)
	}

	ctr := k(1, 3, 0)
	srv.registerCallback(ctr, 2, "nfb")
	net.sent = net.sent[:0]
	srv.Engine().Apply(&Request{Op: OpIncr, Key: ctr, Arg: IntVal(5), Instance: 1,
		Batch: []BatchEntry{{Delta: 2}, {Delta: 3}}})
	if len(net.sent) != 1 || !net.sent[0].Payload.(CallbackMsg).Val.Equal(IntVal(10)) {
		t.Fatalf("batched incr: sent = %+v, want one callback carrying 10", net.sent)
	}
}

// TestSeedPushesAreLinear: seeding a list with N blocking pushes (the NAT's
// SeedPorts) costs in proportion to N. Copying the whole list for OnUpdate
// on every push made it quadratic. Bytes allocated is that cost without
// the clock's noise: 4N pushes allocate 4 to 5 times what N do (the list's
// own geometric regrowth lands on different steps), a copy per push 16
// times.
func TestSeedPushesAreLinear(t *testing.T) {
	seed := func(n int) uint64 {
		srv, _, key := listServer(0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			srv.Engine().Apply(&Request{Op: OpPushList, Key: key, Arg: IntVal(int64(i)), Instance: 1})
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const n = 10000
	small, big := seed(n), seed(4*n)
	if big > 6*small {
		t.Fatalf("%d pushes allocate %d bytes, %d pushes %d: %.1fx, want about 4x", n, small, 4*n, big, float64(big)/float64(small))
	}
}

// TestValueOpsMatchApplyToValue pins the engine to ApplyToValue, which
// defines the value ops: on an absent key and on a present key of every
// Kind, each value op's engine reply and resulting value equal
// ApplyToValue's on the same value. It also pins the absent-key rule: Set,
// Incr, PushList, CAS (even a failing one), MapSet and MapIncr create the
// key; PopList, MapGet and MapMinIncr fail and leave it absent.
func TestValueOpsMatchApplyToValue(t *testing.T) {
	ops := []struct {
		name    string
		creates bool
		req     func(cur Value) Request // cur: the key's value before the op
	}{
		{"set", true, func(Value) Request { return Request{Op: OpSet, Arg: ListVal(4, 5)} }},
		{"incr", true, func(Value) Request { return Request{Op: OpIncr, Arg: IntVal(3)} }},
		{"pushlist", true, func(Value) Request { return Request{Op: OpPushList, Arg: IntVal(9)} }},
		{"poplist", false, func(Value) Request { return Request{Op: OpPopList} }},
		{"cas-hit", true, func(cur Value) Request { return Request{Op: OpCAS, Arg: cur, Arg2: IntVal(8)} }},
		{"cas-miss", true, func(Value) Request { return Request{Op: OpCAS, Arg: IntVal(-99), Arg2: IntVal(8)} }},
		{"mapset", true, func(Value) Request { return Request{Op: OpMapSet, Field: "a", Arg: IntVal(6)} }},
		{"mapget", false, func(Value) Request { return Request{Op: OpMapGet, Field: "a"} }},
		{"mapincr", true, func(Value) Request { return Request{Op: OpMapIncr, Field: "a", Arg: IntVal(2)} }},
		{"mapminincr", false, func(Value) Request { return Request{Op: OpMapMinIncr, Arg: IntVal(1)} }},
	}
	present := map[string]Value{
		"nil":   {},
		"int":   IntVal(7),
		"float": FloatVal(1.5),
		"bytes": StringVal("xy"),
		"list":  ListVal(1, 2),
		"map":   MapVal(map[string]int64{"a": 3, "b": 1}),
	}
	for _, op := range ops {
		t.Run(op.name+"/absent", func(t *testing.T) {
			e := NewEngine(1)
			req := op.req(Value{})
			req.Key = k(1, 1, 0)
			got := e.Apply(&req)
			var v Value
			if want := ApplyToValue(&v, &req); !reflect.DeepEqual(got, want) {
				t.Fatalf("engine reply %+v, ApplyToValue %+v", got, want)
			}
			after, exists := e.Get(req.Key)
			if exists != op.creates {
				t.Fatalf("key exists after the op = %v, want %v", exists, op.creates)
			}
			if exists && !reflect.DeepEqual(after, v.Copy()) {
				t.Fatalf("engine value %+v, ApplyToValue %+v", after, v)
			}
		})
		for kind, init := range present {
			t.Run(op.name+"/"+kind, func(t *testing.T) {
				e := NewEngine(1)
				key := k(1, 1, 0)
				e.Apply(&Request{Op: OpSet, Key: key, Arg: init})
				req := op.req(init)
				req.Key = key
				got := e.Apply(&req)
				v := init.Copy()
				if want := ApplyToValue(&v, &req); !reflect.DeepEqual(got, want) {
					t.Fatalf("engine reply %+v, ApplyToValue %+v", got, want)
				}
				after, exists := e.Get(key)
				if !exists {
					t.Fatal("present key gone after the op")
				}
				if !reflect.DeepEqual(after, v.Copy()) {
					t.Fatalf("engine value %+v, ApplyToValue %+v", after, v)
				}
			})
		}
	}
}
