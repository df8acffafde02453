package packet

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestFlowKeyReverse(t *testing.T) {
	k := FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 10, DstPort: 20, Proto: ProtoTCP}
	r := k.Reverse()
	if r.SrcIP != 2 || r.DstIP != 1 || r.SrcPort != 20 || r.DstPort != 10 {
		t.Fatalf("reverse = %+v", r)
	}
	if r.Reverse() != k {
		t.Fatal("double reverse not identity")
	}
}

func TestFlowKeyCanonical(t *testing.T) {
	if err := quick.Check(func(a, b uint32, p, q uint16) bool {
		k := FlowKey{SrcIP: a, DstIP: b, SrcPort: p, DstPort: q, Proto: ProtoTCP}
		return k.Canonical() == k.Reverse().Canonical()
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlowKeyHashStable(t *testing.T) {
	k := FlowKey{SrcIP: 0x0a000001, DstIP: 0xc0a80101, SrcPort: 443, DstPort: 51515, Proto: ProtoTCP}
	if k.Hash() != k.Hash() {
		t.Fatal("hash not deterministic")
	}
	if k.Hash() == k.Reverse().Hash() {
		t.Fatal("directed hash should differ for reverse direction (vanishingly unlikely collision)")
	}
}

func TestClockEncoding(t *testing.T) {
	if err := quick.Check(func(root uint8, ctr uint64) bool {
		c := MakeClock(root, ctr)
		return ClockRoot(c) == root && ClockCounter(c) == ctr&(1<<56-1)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClockOrderingWithinRoot(t *testing.T) {
	// Counters from the same root must preserve order under MakeClock.
	a := MakeClock(3, 100)
	b := MakeClock(3, 101)
	if !(a < b) {
		t.Fatal("clock order violated")
	}
}

func TestTCPFlagHelpers(t *testing.T) {
	syn := &Packet{Proto: ProtoTCP, TCPFlags: FlagSYN}
	synack := &Packet{Proto: ProtoTCP, TCPFlags: FlagSYN | FlagACK}
	rst := &Packet{Proto: ProtoTCP, TCPFlags: FlagRST}
	fin := &Packet{Proto: ProtoTCP, TCPFlags: FlagFIN | FlagACK}
	udp := &Packet{Proto: ProtoUDP}
	if !syn.IsSYN() || syn.IsSYNACK() {
		t.Fatal("SYN misclassified")
	}
	if !synack.IsSYNACK() || synack.IsSYN() {
		t.Fatal("SYNACK misclassified")
	}
	if !rst.IsRST() || !fin.IsFIN() {
		t.Fatal("RST/FIN misclassified")
	}
	if udp.IsSYN() || udp.IsSYNACK() || udp.IsRST() || udp.IsFIN() {
		t.Fatal("UDP has TCP flags")
	}
}

func TestAppClassification(t *testing.T) {
	cases := []struct {
		src, dst uint16
		want     App
	}{
		{51000, PortSSH, AppSSH},
		{PortSSH, 51000, AppSSH},
		{51000, PortFTP, AppFTP},
		{51000, PortIRC, AppIRC},
		{51000, PortHTTP, AppHTTP},
		{51000, PortDNS, AppDNS},
		{51000, 52000, AppOther},
	}
	for _, c := range cases {
		p := &Packet{SrcPort: c.src, DstPort: c.dst}
		if got := AppOf(p); got != c.want {
			t.Errorf("AppOf(%d->%d) = %v, want %v", c.src, c.dst, got, c.want)
		}
	}
}

func TestWireLen(t *testing.T) {
	tcp := &Packet{Proto: ProtoTCP, PayloadLen: 1394}
	if tcp.WireLen() != 1434 {
		t.Fatalf("tcp WireLen = %d, want 1434", tcp.WireLen())
	}
	udp := &Packet{Proto: ProtoUDP, PayloadLen: 100}
	if udp.WireLen() != 128 {
		t.Fatalf("udp WireLen = %d, want 128", udp.WireLen())
	}
}

func randPacket(r *rand.Rand) Packet {
	proto := uint8(ProtoTCP)
	if r.Intn(2) == 0 {
		proto = ProtoUDP
	}
	p := Packet{
		SrcIP:      r.Uint32(),
		DstIP:      r.Uint32(),
		SrcPort:    uint16(r.Uint32()),
		DstPort:    uint16(r.Uint32()),
		Proto:      proto,
		PayloadLen: uint16(r.Intn(1460)),
		Meta: Meta{
			Clock:   r.Uint64(),
			BitVec:  r.Uint32(),
			Flags:   uint8(r.Intn(16)),
			CloneID: uint16(r.Uint32()),
		},
	}
	if proto == ProtoTCP {
		p.TCPFlags = uint8(r.Intn(32))
		p.Seq = r.Uint32()
	}
	return p
}

// TestMarshalRoundTrip: encode/decode is the identity on all fields.
func TestMarshalRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	buf := make([]byte, 128)
	for i := 0; i < 2000; i++ {
		p := randPacket(r)
		n, err := p.Marshal(buf)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if n != p.MarshaledLen() {
			t.Fatalf("wrote %d, MarshaledLen %d", n, p.MarshaledLen())
		}
		var q Packet
		m, err := q.Unmarshal(buf[:n])
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if m != n {
			t.Fatalf("consumed %d, wrote %d", m, n)
		}
		if q != p {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", p, q)
		}
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	p := Packet{Proto: ProtoTCP, SrcIP: 1, DstIP: 2}
	buf := make([]byte, 128)
	n, err := p.Marshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < n; cut++ {
		var q Packet
		if _, err := q.Unmarshal(buf[:cut]); err == nil {
			t.Fatalf("unmarshal succeeded on %d/%d bytes", cut, n)
		}
	}
}

func TestUnmarshalCorruptChecksum(t *testing.T) {
	p := Packet{Proto: ProtoTCP, SrcIP: 0x01020304, DstIP: 0x05060708, SrcPort: 1, DstPort: 2}
	buf := make([]byte, 128)
	n, _ := p.Marshal(buf)
	buf[ShimLen+12] ^= 0xff // corrupt a source-IP byte, breaking the checksum
	var q Packet
	if _, err := q.Unmarshal(buf[:n]); err == nil {
		t.Fatal("unmarshal accepted corrupted IPv4 header")
	}
}

func TestMarshalShortBuffer(t *testing.T) {
	p := Packet{Proto: ProtoTCP}
	if _, err := p.Marshal(make([]byte, 10)); err != ErrShort {
		t.Fatalf("err = %v, want ErrShort", err)
	}
}

func TestUnmarshalBadProto(t *testing.T) {
	p := Packet{Proto: ProtoTCP}
	buf := make([]byte, 128)
	n, _ := p.Marshal(buf)
	// Overwrite the protocol field with an unsupported value and repair the
	// checksum so the proto check is what trips.
	ip := buf[ShimLen:]
	ip[9] = 99
	ip[10], ip[11] = 0, 0
	cs := ipChecksum(ip[:20])
	ip[10], ip[11] = byte(cs>>8), byte(cs)
	var q Packet
	if _, err := q.Unmarshal(buf[:n]); err != ErrProto {
		t.Fatalf("err = %v, want ErrProto", err)
	}
}

func TestClonePreservesAndIsolates(t *testing.T) {
	for _, a := range []*Arena{nil, NewArena(false), NewArena(true)} {
		p := &Packet{SrcIP: 1, Meta: Meta{Clock: 7}, SentNs: 3}
		q := a.Clone(p)
		if *q != *p {
			t.Fatal("clone differs")
		}
		q.Meta.Clock = 9
		if p.Meta.Clock != 7 {
			t.Fatal("clone aliases original")
		}
		// A copy of a pooled buffer is live: its own Put must recycle it.
		p.arenaState = arenaPooled
		r := a.Clone(p)
		if r.arenaState != arenaLive {
			t.Fatalf("clone of a released packet has arenaState %d", r.arenaState)
		}
	}
}

// TestPacketSize pins the packet to the 64-byte allocator size class: the
// retained trace and every arena buffer pay for any byte above it with 16.
func TestPacketSize(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n > 64 {
		t.Fatalf("Packet is %d bytes, want at most 64", n)
	}
	if n := unsafe.Sizeof(Meta{}); n != 16 {
		t.Fatalf("Meta is %d bytes, want 16", n)
	}
}

func BenchmarkMarshal(b *testing.B) {
	p := Packet{Proto: ProtoTCP, SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, PayloadLen: 1394}
	buf := make([]byte, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Marshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	p := Packet{Proto: ProtoTCP, SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, PayloadLen: 1394}
	buf := make([]byte, 128)
	n, _ := p.Marshal(buf)
	var q Packet
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := q.Unmarshal(buf[:n]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlowKeyHash(b *testing.B) {
	k := FlowKey{SrcIP: 0x0a000001, DstIP: 0xc0a80101, SrcPort: 443, DstPort: 51515, Proto: ProtoTCP}
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += k.Hash()
	}
	_ = sink
}
