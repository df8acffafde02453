package runtime

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
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
	sentPkt := *samplePkt
	sentPkt.SentNs = 1 << 40
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
	return append([]wireSample{
		{name: "int", in: int(-12345)},
		{name: "string", in: "endpoint.name"},
		{name: "store.Request", in: req},
		{name: "store.Reply", in: &store.Reply{
			Val: store.Value{Kind: store.KindMap, Map: map[string]int64{"a": 1, "b": 2}},
			OK:  true, Emulated: true, Conflict: true,
			TS: map[uint16]uint64{0: 5, 3: 9},
		}},
		{name: "store.AsyncBatchMsg", in: store.AsyncBatchMsg{Ops: []store.AsyncOp{
			{Req: req, Seq: 1, From: "v0.i0"},
			{Req: req, Seq: 2, From: "v0.i0"},
		}}},
		{name: "store.AckMsg", in: &store.AckMsg{Seqs: []uint64{31337}}},
		{name: "store.CallbackMsg", in: store.CallbackMsg{
			Key: store.Key{Vertex: 1, Obj: 2, Sub: 3},
			Val: store.Value{Kind: store.KindList, List: []int64{5, 6, 7}},
		}},
		{name: "store.OwnerMsg", in: store.OwnerMsg{Key: store.Key{Vertex: 1}, Owner: 2}},
		{name: "store.OwnerSeedMsg", in: store.OwnerSeedMsg{Key: store.Key{Sub: 0xffffffffffffffff}, Instance: 1}},
		{name: "store.CommitMsg", in: &store.CommitMsg{Commits: []store.Commit{{Clock: 11, Instance: 2, Key: store.Key{Obj: 7}}}}},
		{name: "store.PruneMsg", in: store.PruneMsg{Clocks: []uint64{1 << 40}}},
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
		{name: "runtime.Packet", in: &sentPkt},
		{name: "runtime.DeleteMsg",
			in:   DeleteMsg{Dels: []Delete{{Clock: 5, Vec: 0xbeef}}, Reply: nil},
			want: DeleteMsg{Dels: []Delete{{Clock: 5, Vec: 0xbeef}}}},
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
	}, controlBatchSamples()...)
}

// controlBatchSamples returns the four control signals with 0 and with 32
// entries each (the one-entry ones are in wireSamples under the bare
// names). An empty slice decodes as nil: canonical form does not tell them
// apart.
func controlBatchSamples() []wireSample {
	var out []wireSample
	for _, n := range []int{0, 32} {
		acks, commits := new(store.AckMsg), new(store.CommitMsg)
		var prunes store.PruneMsg
		var dels DeleteMsg
		for i := 0; i < n; i++ {
			clock := packet.MakeClock(1, uint64(i+1))
			acks.Seqs = append(acks.Seqs, uint64(1000+i))
			commits.Commits = append(commits.Commits, store.Commit{Clock: clock, Instance: uint16(i%3 + 1),
				Key: store.Key{Vertex: uint16(i%3 + 1), Obj: uint16(i%4 + 1), Sub: uint64(i) << 20}})
			prunes.Clocks = append(prunes.Clocks, clock)
			dels.Dels = append(dels.Dels, Delete{Clock: clock, Vec: fig6Term(uint16(i%3+1), uint16(i%4+1))})
		}
		suffix := fmt.Sprintf(".n%d", n)
		out = append(out,
			wireSample{name: "store.AckMsg" + suffix, in: acks},
			wireSample{name: "store.CommitMsg" + suffix, in: commits},
			wireSample{name: "store.PruneMsg" + suffix, in: prunes},
			wireSample{name: "runtime.DeleteMsg" + suffix, in: dels})
	}
	return out
}

// TestWireRegistryComplete pins the registry contents: every registered
// tag has a round-trip sample, and the tag->name allocation matches the
// table in DESIGN.md §12 (tags are wire identity — renumbering breaks
// cross-version interop, so any diff here is a protocol change).
func TestWireRegistryComplete(t *testing.T) {
	wantAlloc := map[uint16]string{
		1: "int", 2: "string",
		16: "store.Request", 17: "store.Reply",
		19: "store.AsyncBatchMsg", 21: "store.CallbackMsg",
		22: "store.OwnerMsg", 23: "store.OwnerSeedMsg",
		26: "store.TruncateMsg", 27: "store.LockGetReq",
		28: "store.SetUnlockReq", 29: "store.PartitionQuery", 30: "store.PartitionMap",
		31: "store.AckMsg", 32: "store.CommitMsg", 33: "store.PruneMsg",
		48: "runtime.PacketMsg", 50: "runtime.FlowTableQuery",
		51: "runtime.FlowTable", 52: "runtime.ReplayCmd", 53: "runtime.RootStatsQuery",
		54: "runtime.RootStats", 55: "runtime.SweepCmd", 56: "runtime.DeleteMsg",
		57: "runtime.Packet",
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

// TestDecodeDoesNotAlias: a decoded value shares no memory with its
// encoding. netnet decodes every payload from a view of its connection's
// frame buffer and reads the next frame over it, so each sample is decoded
// the way it does (one reused decoder), the input is overwritten, and the
// value must still equal a fresh decode.
func TestDecodeDoesNotAlias(t *testing.T) {
	var d transport.WireDec
	for _, s := range wireSamples() {
		b, err := transport.EncodePayload(s.in)
		if err != nil {
			t.Fatalf("%s: encode: %v", s.name, err)
		}
		held, err := d.DecodePayload(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", s.name, err)
		}
		fresh, err := transport.DecodePayload(slices.Clone(b))
		if err != nil {
			t.Fatalf("%s: fresh decode: %v", s.name, err)
		}
		for i := range b {
			b[i] = 0xa5
		}
		if !reflect.DeepEqual(held, fresh) {
			t.Fatalf("%s: overwriting the encoding changed the decoded value:\n got  %#v\n want %#v", s.name, held, fresh)
		}
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

// retiredTags held single-entry control signals before they carried slices
// (store ack 20, commit 24, prune 25; runtime delete 49) and the stand-alone
// store.AsyncOp (18). Tags are append-only: none may be registered again.
var retiredTags = []uint16{18, 20, 24, 25, 49}

// controlTags are the four control-signal codecs FuzzControlBatchDecode
// drives.
var controlTags = []uint16{31, 32, 33, 56}

// FuzzControlBatchDecode drives the four control-signal decoders with
// arbitrary frames. A frame under a retired tag is an error (an old peer's
// signal is loss, not a misread). Every input's body is also decoded under
// each of the four tags: it must error, or decode to a value that re-encodes
// to exactly the same frame, so no count can outrun the bytes behind it.
// The seed corpus (run by plain go test) holds the 0-, 1- and 32-entry
// encodings, their truncations, counts larger than the body and frames
// under the retired tags.
func FuzzControlBatchDecode(f *testing.F) {
	frame := func(tag uint16, body []byte) []byte {
		return append(binary.BigEndian.AppendUint16(nil, tag), body...)
	}
	for _, s := range wireSamples() {
		b, err := transport.EncodePayload(s.in)
		if err != nil {
			f.Fatal(err)
		}
		tag := binary.BigEndian.Uint16(b)
		if !slices.Contains(controlTags, tag) {
			continue
		}
		f.Add(b)
		f.Add(b[:len(b)-1])                                     // truncated body
		f.Add(frame(tag, []byte{0xff, 0xff, 0xff, 0xff, 0, 0})) // count far past the body
	}
	for _, tag := range retiredTags {
		f.Add(frame(tag, make([]byte, 22))) // an old single-entry body
		f.Add(frame(tag, nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 2 && slices.Contains(retiredTags, binary.BigEndian.Uint16(data)) {
			if v, err := transport.DecodePayload(data); err == nil {
				t.Fatalf("retired tag %d decoded to %#v", binary.BigEndian.Uint16(data), v)
			}
		}
		body := data
		if len(body) >= 2 {
			body = body[2:]
		}
		for _, tag := range controlTags {
			in := frame(tag, body)
			v, err := transport.DecodePayload(in)
			if err != nil {
				continue
			}
			out, err := transport.EncodePayload(v)
			if err != nil {
				t.Fatalf("tag %d: decoded %#v does not re-encode: %v", tag, v, err)
			}
			if !bytes.Equal(in, out) {
				t.Fatalf("tag %d: re-encoding is not the frame decoded:\n in  %x\n out %x", tag, in, out)
			}
		}
	})
}
