package store

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"chc/internal/vtime"
)

// TestSetObjExclusiveInvalidatesCleanEntries: losing object-level
// exclusivity must invalidate every cached sub of the object, not only the
// ones that happen to hold unflushed ops — a clean-but-valid entry would
// otherwise be served stale once exclusivity returns, after another
// instance updated the object in between.
func TestSetObjExclusiveInvalidatesCleanEntries(t *testing.T) {
	r := newRig(t, 2, ModeEOC, splitDecl)
	key := Key{Vertex: 1, Obj: 4, Sub: 77}
	var got Value
	r.run(func(p *vtime.Proc) {
		a, b := r.clients[0], r.clients[1]
		a.SetObjExclusive(4, true)
		a.Update(p, Request{Op: OpIncr, Key: key, Arg: IntVal(1), Clock: 1})
		a.FlushAll() // the entry is now clean, and still valid
		p.Sleep(200 * time.Microsecond)
		a.SetObjExclusive(4, false)
		b.Update(p, Request{Op: OpIncr, Key: key, Arg: IntVal(10), Clock: 2})
		a.SetObjExclusive(4, true)
		got, _ = a.Get(p, 4, 77, 3)
	})
	if v, _ := r.server.Engine().Get(key); v.Int != 11 {
		t.Fatalf("store value = %v, want 11", v.Int)
	}
	if got.Int != 11 {
		t.Fatalf("A.Get after regaining exclusivity = %v, want 11 (stale cache served)", got.Int)
	}
}

// sortedWalk is the reference the dirty list replaced: every cached key
// keep selects that has pending ops, sorted with Key.Less, and the ops a
// flush in that order emits.
func sortedWalk(c *Client, keep func(Key, *cacheEntry) bool) []Request {
	var keys []Key
	for k, e := range c.cache {
		if len(e.pending) > 0 && keep(k, e) {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	var out []Request
	for _, k := range keys {
		for _, r := range c.cache[k].pending {
			r.Key = k
			out = append(out, r)
		}
	}
	return out
}

// TestFlushOrderMatchesSortedWalk drives a client through random verb
// sequences and checks, after every verb and the FlushBurst behind it,
// that the async ops it put on the wire are exactly the ones a sorted walk
// over the whole cache would have flushed, in that order; at the end, that
// every op issued was sent once and only once (or was discarded by
// InvalidateAll, which drops the cache with whatever it holds).
func TestFlushOrderMatchesSortedWalk(t *testing.T) {
	decls := []ObjDecl{
		{ID: 2, Name: "flow", Scope: ScopeFlow, Pattern: WriteReadOften},
		{ID: 3, Name: "flow2", Scope: ScopeFlow, Pattern: WriteReadOften},
		{ID: 4, Name: "host", Scope: ScopeSrcIP, Pattern: WriteReadOften},
		{ID: 5, Name: "host2", Scope: ScopeSrcIP, Pattern: WriteReadOften},
	}
	all := func(Key, *cacheEntry) bool { return true }
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		net := &stubNet{keep: true}
		c := NewClient(net, ClientConfig{Vertex: 1, Instance: 1, Endpoint: "nfa", Store: "store0",
			Mode: ModeEOC, Decls: decls})
		var clock uint64
		issued := map[uint64]bool{}
		accounted := map[uint64]int{} // clock -> times sent (async or blocking) or discarded
		for step := 0; step < 600; step++ {
			obj := uint16(2 + r.Intn(4))
			sub := uint64(r.Intn(6))
			k := Key{Vertex: 1, Obj: obj, Sub: sub}
			one := func(k2 Key, _ *cacheEntry) bool { return k2 == k }
			var want []Request
			verb := r.Intn(16)
			switch {
			case verb < 6:
				clock++
				issued[clock] = true
				c.Update(nil, Request{Op: OpIncr, Key: k, Arg: IntVal(int64(step)), Clock: clock})
			case verb < 8:
				clock++
				issued[clock] = true
				c.UpdateBlocking(nil, Request{Op: OpPushList, Key: k, Arg: IntVal(int64(step)), Clock: clock})
			case verb == 8:
				want = sortedWalk(c, one)
				c.FlushObject(obj, sub)
			case verb == 9:
				want = sortedWalk(c, func(k2 Key, _ *cacheEntry) bool {
					return k2.Sub == sub && c.decl(k2.Obj).Scope == ScopeFlow
				})
				c.ReleaseFlow(nil, sub)
			case verb < 12:
				excl := r.Intn(2) == 0
				was := c.objExcl[obj]
				if e := c.cache[k]; e != nil && e.exclSet {
					was = e.exclusive
				}
				if was && !excl {
					want = sortedWalk(c, one)
				}
				c.SetExclusive(obj, sub, excl)
			case verb < 14:
				excl := r.Intn(2) == 0
				if c.objExcl[obj] && !excl {
					want = sortedWalk(c, func(k2 Key, e *cacheEntry) bool { return k2.Obj == obj && !e.exclSet })
				}
				c.SetObjExclusive(obj, excl)
			case verb == 14:
				want = sortedWalk(c, all)
				c.FlushAll()
			default:
				if r.Intn(4) == 0 {
					for _, q := range sortedWalk(c, all) {
						accounted[q.Clock]++
					}
					c.InvalidateAll()
				}
			}
			c.FlushBurst() // the instance's flush point: held ops leave here
			got := net.asyncReqs()
			for i := range got {
				got[i].WalPos = 0 // stamped at send time; the pending copy has none
				accounted[got[i].Clock]++
			}
			if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("seed %d step %d verb %d: async ops on the wire\n got  %+v\n want %+v", seed, step, verb, got, want)
			}
			for _, q := range net.calls {
				if q.Clock != 0 {
					accounted[q.Clock]++
				}
			}
			net.calls = net.calls[:0]
			listed := map[Key]bool{}
			for _, dk := range c.dirty {
				listed[dk] = true
			}
			for ck, e := range c.cache {
				if len(e.pending) > 0 && !(e.dirty && listed[ck]) {
					t.Fatalf("seed %d step %d: %v holds %d pending ops but is not on the dirty list", seed, step, ck, len(e.pending))
				}
			}
		}
		c.FlushAll()
		for _, q := range net.asyncReqs() {
			accounted[q.Clock]++
		}
		for cl := range issued {
			if accounted[cl] != 1 {
				t.Fatalf("seed %d: op with clock %d reached the wire %d times, want 1", seed, cl, accounted[cl])
			}
		}
		if len(c.dirty) != 0 {
			t.Fatalf("seed %d: %d keys still listed after FlushAll", seed, len(c.dirty))
		}
	}
}

// TestFlushAllIgnoresCleanEntries: the periodic flush costs nothing for
// entries that hold no unflushed ops. It must not even look at them: the
// clean entries are replaced by nil pointers, so a cache walk would crash.
func TestFlushAllIgnoresCleanEntries(t *testing.T) {
	c := NewClient(&stubNet{}, ClientConfig{Vertex: 1, Instance: 1, Endpoint: "nfa", Store: "store0",
		Mode: ModeEOC, Decls: perFlowDecl})
	for sub := uint64(0); sub < 16384; sub++ {
		c.Update(nil, Request{Op: OpSet, Key: Key{Vertex: 1, Obj: 2, Sub: sub}, Arg: IntVal(1)})
	}
	if n := c.FlushAll(); n != 16384 {
		t.Fatalf("first FlushAll sent %d ops, want 16384", n)
	}
	for k := range c.cache {
		c.cache[k] = nil
	}
	if a := testing.AllocsPerRun(100, func() { c.FlushAll() }); a != 0 {
		t.Fatalf("FlushAll over 16384 clean entries allocates %v times, want 0", a)
	}
}
