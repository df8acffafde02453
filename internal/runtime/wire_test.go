package runtime

import (
	"bytes"
	"reflect"
	"testing"

	"chc/internal/packet"
	"chc/internal/store"
	"chc/internal/transport"
)

// wireSample is one registered payload exercised by the round-trip suite:
// in is what a sender hands to EncodePayload; want is what the receiver
// must observe (nil want means want == in). They differ only where the
// wire deliberately drops in-process-only state (DeleteMsg.Reply).
type wireSample struct {
	name string
	in   any
	want any
}

func wireSamples() []wireSample {
	samplePkt := &packet.Packet{
		SrcIP: 0x0a000001, DstIP: 0x0a000002,
		SrcPort: 443, DstPort: 51515,
		Proto: 6, TCPFlags: 0x18, Seq: 1234567, PayloadLen: 512,
		Meta: packet.Meta{Clock: 99, BitVec: 0xdead, Flags: packet.MetaFirst | packet.MetaReplay, CloneID: 3, Class: 1},
	}
	req := &store.Request{
		Op:  store.OpCAS,
		Key: store.Key{Vertex: 2, Obj: 1, Sub: 0xfeedface},
		Arg: store.Value{Kind: store.KindInt, Int: 41}, Arg2: store.Value{Kind: store.KindInt, Int: 42},
		Field: "f", Custom: "lb-pick", NDKind: store.NDTime,
		Clock: 77, Instance: 4, WantTS: true, NonBlock: true, WalPos: 9,
		Batch:      []store.BatchEntry{{Clock: 1, Delta: -2}, {Clock: 3, Delta: 4}},
		RegisterCB: true, WatchOwner: true,
	}
	pm := store.NewPartitionMap([]string{"store0", "store1"})
	pm.Version = 7
	return []wireSample{
		{name: "int", in: int(-12345)},
		{name: "string", in: "endpoint.name"},
		{name: "store.Request", in: req},
		{name: "store.Reply", in: store.Reply{
			Val: store.Value{Kind: store.KindMap, Map: map[string]int64{"a": 1, "b": 2}},
			OK:  true, Emulated: true, Conflict: true,
			TS: map[uint16]uint64{0: 5, 3: 9},
		}},
		{name: "store.AsyncBatchMsg", in: store.AsyncBatchMsg{Ops: []store.AsyncOp{
			{Req: req, Seq: 1, From: "v0.i0"},
			{Req: req, Seq: 2, From: "v0.i0"},
		}}},
		{name: "store.AckMsg", in: store.AckMsg{Seq: 31337}},
		{name: "store.CallbackMsg", in: store.CallbackMsg{
			Key: store.Key{Vertex: 1, Obj: 2, Sub: 3},
			Val: store.Value{Kind: store.KindList, List: []int64{5, 6, 7}},
		}},
		{name: "store.OwnerMsg", in: store.OwnerMsg{Key: store.Key{Vertex: 1}, Owner: 2}},
		{name: "store.OwnerSeedMsg", in: store.OwnerSeedMsg{Key: store.Key{Sub: 0xffffffffffffffff}, Instance: 1}},
		{name: "store.CommitMsg", in: store.CommitMsg{Clock: 11, Instance: 2, Key: store.Key{Obj: 7}}},
		{name: "store.PruneMsg", in: store.PruneMsg{Clock: 1 << 40}},
		{name: "store.TruncateMsg", in: store.TruncateMsg{
			TS:    map[uint16]uint64{1: 100, 2: 200},
			Pos:   map[uint16]uint64{1: 3},
			Shard: "store1",
		}},
		{name: "store.LockGetReq", in: store.LockGetReq{Key: store.Key{Vertex: 9}, Instance: 6}},
		{name: "store.SetUnlockReq", in: store.SetUnlockReq{
			Key: store.Key{Vertex: 9}, Val: store.Value{Kind: store.KindBytes, Bytes: []byte{0xca, 0xfe}},
			Instance: 6, Clock: 12,
		}},
		{name: "store.PartitionQuery", in: store.PartitionQuery{}},
		{name: "store.PartitionMap", in: pm},
		{name: "runtime.PacketMsg", in: PacketMsg{Pkt: samplePkt, InjectedAt: 1000, SentAt: 2000}},
		{name: "runtime.DeleteMsg",
			in:   DeleteMsg{Clock: 5, Vec: 0xbeef, Reply: nil},
			want: DeleteMsg{Clock: 5, Vec: 0xbeef}},
		{name: "runtime.FlowTableQuery", in: FlowTableQuery{}},
		{name: "runtime.FlowTable", in: FlowTable{
			Scope:     store.ScopeSrcIP,
			Overrides: map[uint64]uint16{10: 1, 20: 0},
		}},
		{name: "runtime.ReplayCmd", in: ReplayCmd{CloneID: 8}},
		{name: "runtime.SweepCmd", in: SweepCmd{}},
		{name: "runtime.RootStatsQuery", in: RootStatsQuery{}},
		{name: "runtime.RootStats", in: RootStats{
			Injected: 1, Deleted: 2, Dropped: 3, Replayed: 4, Bursts: 5, LogSize: -1,
			InjectedByClass: []uint64{7, 8}, DeletedByClass: []uint64{9},
		}},
	}
}

// TestWireRegistryComplete pins the registry contents: every registered
// tag has a round-trip sample, and the tag->name allocation matches the
// table in DESIGN.md §12 (tags are wire identity — renumbering breaks
// cross-version interop, so any diff here is a protocol change).
func TestWireRegistryComplete(t *testing.T) {
	wantAlloc := map[uint16]string{
		1: "int", 2: "string",
		16: "store.Request", 17: "store.Reply",
		19: "store.AsyncBatchMsg", 20: "store.AckMsg", 21: "store.CallbackMsg",
		22: "store.OwnerMsg", 23: "store.OwnerSeedMsg", 24: "store.CommitMsg",
		25: "store.PruneMsg", 26: "store.TruncateMsg", 27: "store.LockGetReq",
		28: "store.SetUnlockReq", 29: "store.PartitionQuery", 30: "store.PartitionMap",
		48: "runtime.PacketMsg", 49: "runtime.DeleteMsg", 50: "runtime.FlowTableQuery",
		51: "runtime.FlowTable", 52: "runtime.ReplayCmd", 53: "runtime.RootStatsQuery",
		54: "runtime.RootStats", 55: "runtime.SweepCmd",
	}
	entries := transport.WireEntries()
	got := make(map[uint16]string, len(entries))
	for _, e := range entries {
		got[e.Tag] = e.Name
	}
	if !reflect.DeepEqual(got, wantAlloc) {
		t.Fatalf("wire tag allocation drifted:\n got  %v\n want %v", got, wantAlloc)
	}
	sampled := make(map[string]bool)
	for _, s := range wireSamples() {
		sampled[s.name] = true
	}
	for _, e := range entries {
		if !sampled[e.Name] {
			t.Errorf("registered payload %q (tag %d) has no round-trip sample", e.Name, e.Tag)
		}
	}
}

// TestWireRoundTrip checks, for every payload: encode→decode yields the
// expected value, and re-encoding the decoded value reproduces the exact
// bytes (canonical encodings are byte-stable through a round trip).
func TestWireRoundTrip(t *testing.T) {
	for _, s := range wireSamples() {
		t.Run(s.name, func(t *testing.T) {
			b1, err := transport.EncodePayload(s.in)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			v, err := transport.DecodePayload(b1)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			want := s.want
			if want == nil {
				want = s.in
			}
			if !reflect.DeepEqual(v, want) {
				t.Fatalf("round trip mismatch:\n got  %#v\n want %#v", v, want)
			}
			b2, err := transport.EncodePayload(v)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatalf("re-encode not byte-stable:\n first  %x\n second %x", b1, b2)
			}
		})
	}
}

// TestWireDecodeTruncated feeds every prefix of every sample's encoding
// to the decoder: truncation must surface as an error, never a panic or
// a silently short value accepted as complete.
func TestWireDecodeTruncated(t *testing.T) {
	for _, s := range wireSamples() {
		b, err := transport.EncodePayload(s.in)
		if err != nil {
			t.Fatalf("%s: encode: %v", s.name, err)
		}
		for cut := 0; cut < len(b); cut++ {
			if _, err := transport.DecodePayload(b[:cut]); err == nil {
				t.Fatalf("%s: decode accepted truncation at %d/%d bytes", s.name, cut, len(b))
			}
		}
	}
}

// FuzzWireDecode hammers DecodePayload with arbitrary bytes (seeded with
// every sample's real encoding): it must either error or return a value
// that re-encodes without error — never panic.
func FuzzWireDecode(f *testing.F) {
	for _, s := range wireSamples() {
		b, err := transport.EncodePayload(s.in)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x10})
	f.Add([]byte{0x00, 0x12}) // tag 18, retired with the stand-alone store.AsyncOp: an old peer's frame is an error
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := transport.DecodePayload(data)
		if err != nil {
			return
		}
		if _, err := transport.EncodePayload(v); err != nil {
			t.Fatalf("decoded value failed to re-encode: %v", err)
		}
	})
}
