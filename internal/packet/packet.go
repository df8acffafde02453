package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Protocol numbers (IPv4 protocol field).
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// TCP flag bits.
const (
	FlagFIN uint8 = 1 << 0
	FlagSYN uint8 = 1 << 1
	FlagRST uint8 = 1 << 2
	FlagPSH uint8 = 1 << 3
	FlagACK uint8 = 1 << 4
)

// FlowKey is the canonical 5-tuple.
type FlowKey struct {
	SrcIP   uint32
	DstIP   uint32
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// Reverse returns the key for the opposite direction of the flow.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{SrcIP: k.DstIP, DstIP: k.SrcIP, SrcPort: k.DstPort, DstPort: k.SrcPort, Proto: k.Proto}
}

// Canonical returns a direction-independent key: the lexicographically
// smaller of k and k.Reverse(). Both directions of a connection map to the
// same canonical key, which is what per-connection NF state is keyed on.
func (k FlowKey) Canonical() FlowKey {
	r := k.Reverse()
	if k.less(r) {
		return k
	}
	return r
}

func (k FlowKey) less(o FlowKey) bool {
	if k.SrcIP != o.SrcIP {
		return k.SrcIP < o.SrcIP
	}
	if k.DstIP != o.DstIP {
		return k.DstIP < o.DstIP
	}
	if k.SrcPort != o.SrcPort {
		return k.SrcPort < o.SrcPort
	}
	return k.DstPort < o.DstPort
}

// Hash returns a 64-bit FNV-1a hash of the key, used by splitters to
// partition traffic deterministically.
func (k FlowKey) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime
	}
	mix(byte(k.SrcIP >> 24))
	mix(byte(k.SrcIP >> 16))
	mix(byte(k.SrcIP >> 8))
	mix(byte(k.SrcIP))
	mix(byte(k.DstIP >> 24))
	mix(byte(k.DstIP >> 16))
	mix(byte(k.DstIP >> 8))
	mix(byte(k.DstIP))
	mix(byte(k.SrcPort >> 8))
	mix(byte(k.SrcPort))
	mix(byte(k.DstPort >> 8))
	mix(byte(k.DstPort))
	mix(k.Proto)
	return h
}

func ipString(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

func (k FlowKey) String() string {
	return fmt.Sprintf("%s:%d>%s:%d/%d", ipString(k.SrcIP), k.SrcPort, ipString(k.DstIP), k.DstPort, k.Proto)
}

// CHC shim flags (carried in the Meta header the framework prepends).
const (
	MetaFirst  uint8 = 1 << 0 // first packet of a moved flow (Fig 4 step 2)
	MetaLast   uint8 = 1 << 1 // last packet to the old instance (Fig 4 step 1)
	MetaReplay uint8 = 1 << 2 // replayed from the root log (§5.3)
	MetaLastRp uint8 = 1 << 3 // last replayed packet (end-of-replay marker)
	// MetaNoOut marks a replayed packet whose delete request the root had
	// already received: its output reached the receiver before the failure,
	// so the chain tail must re-apply state (emulated) but emit nothing
	// (Theorem B.4.4's duplicate-at-receiver case).
	MetaNoOut uint8 = 1 << 4
)

// RootIDBits is the number of high-order clock bits holding the root
// instance ID (§5: "we encode the identifier of the root instance into the
// higher order bits of the logical clock").
const RootIDBits = 8

// MakeClock composes a logical clock value from a root ID and a counter.
func MakeClock(rootID uint8, counter uint64) uint64 {
	return uint64(rootID)<<(64-RootIDBits) | (counter & (1<<(64-RootIDBits) - 1))
}

// ClockRoot extracts the root instance ID from a clock value.
func ClockRoot(clock uint64) uint8 { return uint8(clock >> (64 - RootIDBits)) }

// ClockCounter extracts the per-root counter from a clock value.
func ClockCounter(clock uint64) uint64 { return clock & (1<<(64-RootIDBits) - 1) }

// Meta is the CHC shim header: framework metadata attached at the root and
// updated along the chain.
type Meta struct {
	Clock   uint64 // logical clock; high RootIDBits bits are the root ID
	BitVec  uint32 // XOR of one mixed 32-bit (instanceID, objID) term per update awaiting its commit (Fig 6; runtime.fig6Term)
	Flags   uint8
	CloneID uint16 // for replayed packets: ID of the clone that must process them (§5.3)
	// Class is the traffic-class index the root's fork classifier assigned:
	// it selects which branch of the policy DAG the packet traverses at
	// every fork. Linear chains have a single class, 0.
	Class uint8
}

// Packet is a parsed packet plus CHC metadata. Payload bytes are not
// materialized in simulation (PayloadLen carries the size); trace files
// store headers only, like a snap-length pcap.
type Packet struct {
	SrcIP, DstIP     uint32
	SrcPort, DstPort uint16
	Proto            uint8
	TCPFlags         uint8  // valid when Proto == ProtoTCP
	Seq              uint32 // TCP sequence number
	PayloadLen       uint16
	Meta             Meta

	// IngressNs is the virtual time (ns) the packet entered the chain at
	// the root. Simulation-local accounting only: never serialized.
	IngressNs int64

	// arenaState is Arena bookkeeping: arenaLive while the packet is
	// owned by the chain, arenaPooled after release. Arena.Put flips it
	// with a CAS so a duplicated delivery cannot double-free. Never
	// serialized; Clone resets it on the copy.
	arenaState uint32
}

// Arena ownership states for Packet.arenaState.
const (
	arenaLive   uint32 = 0
	arenaPooled uint32 = 1
)

// Key returns the packet's directed 5-tuple.
func (p *Packet) Key() FlowKey {
	return FlowKey{SrcIP: p.SrcIP, DstIP: p.DstIP, SrcPort: p.SrcPort, DstPort: p.DstPort, Proto: p.Proto}
}

// WireLen returns the on-the-wire size in bytes: IPv4 (20) + L4 header
// (TCP 20 / UDP 8) + payload. The CHC shim is internal to the framework and
// excluded from throughput accounting, matching the paper which reports
// goodput of the original traffic.
func (p *Packet) WireLen() int {
	l4 := 8
	if p.Proto == ProtoTCP {
		l4 = 20
	}
	return 20 + l4 + int(p.PayloadLen)
}

// IsSYN reports a TCP connection-initiation packet (SYN without ACK).
func (p *Packet) IsSYN() bool {
	return p.Proto == ProtoTCP && p.TCPFlags&FlagSYN != 0 && p.TCPFlags&FlagACK == 0
}

// IsSYNACK reports a TCP SYN+ACK.
func (p *Packet) IsSYNACK() bool {
	return p.Proto == ProtoTCP && p.TCPFlags&FlagSYN != 0 && p.TCPFlags&FlagACK != 0
}

// IsRST reports a TCP reset.
func (p *Packet) IsRST() bool { return p.Proto == ProtoTCP && p.TCPFlags&FlagRST != 0 }

// IsFIN reports a TCP FIN.
func (p *Packet) IsFIN() bool { return p.Proto == ProtoTCP && p.TCPFlags&FlagFIN != 0 }

// Clone returns a copy of the packet (used when the framework replicates
// traffic to a straggler and its clone).
func (p *Packet) Clone() *Packet {
	q := *p
	q.arenaState = arenaLive
	return &q
}

func (p *Packet) String() string {
	return fmt.Sprintf("pkt{%s len=%d clk=%d flags=%02x}", p.Key(), p.PayloadLen, p.Meta.Clock, p.TCPFlags)
}

// App is a coarse application class inferred from ports; the Trojan
// detector's signature (§2.1) is a sequence over these classes.
type App uint8

// Application classes.
const (
	AppOther App = iota
	AppSSH
	AppFTP
	AppIRC
	AppHTTP
	AppDNS
)

// Well-known ports used by the trace generator and classifiers.
const (
	PortSSH  = 22
	PortFTP  = 21
	PortIRC  = 6667
	PortHTTP = 80
	PortDNS  = 53
)

// AppOf classifies a packet by its destination (or source) port.
func AppOf(p *Packet) App {
	for _, port := range [2]uint16{p.DstPort, p.SrcPort} {
		switch port {
		case PortSSH:
			return AppSSH
		case PortFTP:
			return AppFTP
		case PortIRC:
			return AppIRC
		case PortHTTP:
			return AppHTTP
		case PortDNS:
			return AppDNS
		}
	}
	return AppOther
}

func (a App) String() string {
	switch a {
	case AppSSH:
		return "ssh"
	case AppFTP:
		return "ftp"
	case AppIRC:
		return "irc"
	case AppHTTP:
		return "http"
	case AppDNS:
		return "dns"
	default:
		return "other"
	}
}

// --- Wire format -----------------------------------------------------------
//
// Layout: [CHC shim (16B)][IPv4 (20B)][TCP (20B) | UDP (8B)]
// Payload bytes are elided (snap length 0); the IPv4 total-length field
// records the true length so WireLen round-trips.

// ShimLen is the encoded CHC shim header size.
const ShimLen = 16

var (
	// ErrShort reports a truncated buffer.
	ErrShort = errors.New("packet: buffer too short")
	// ErrVersion reports a non-IPv4 header.
	ErrVersion = errors.New("packet: not IPv4")
	// ErrProto reports an unsupported L4 protocol.
	ErrProto = errors.New("packet: unsupported protocol")
)

// MarshaledLen returns the encoded size of p.
func (p *Packet) MarshaledLen() int {
	l4 := 8
	if p.Proto == ProtoTCP {
		l4 = 20
	}
	return ShimLen + 20 + l4
}

// Marshal encodes p into buf, returning the bytes written. buf must have at
// least MarshaledLen() capacity remaining.
func (p *Packet) Marshal(buf []byte) (int, error) {
	need := p.MarshaledLen()
	if len(buf) < need {
		return 0, ErrShort
	}
	be := binary.BigEndian
	// CHC shim: clock (8) | bitvec (4) | flags (1) | cloneID (2) | class (1)
	be.PutUint64(buf[0:], p.Meta.Clock)
	be.PutUint32(buf[8:], p.Meta.BitVec)
	buf[12] = p.Meta.Flags
	be.PutUint16(buf[13:], p.Meta.CloneID)
	buf[15] = p.Meta.Class
	ip := buf[ShimLen:]
	ihl := 5
	ip[0] = 4<<4 | byte(ihl)
	ip[1] = 0 // DSCP/ECN
	be.PutUint16(ip[2:], uint16(p.WireLen()))
	be.PutUint16(ip[4:], 0) // identification
	be.PutUint16(ip[6:], 0) // flags+fragment
	ip[8] = 64              // TTL
	ip[9] = p.Proto
	be.PutUint16(ip[10:], 0) // checksum: filled below
	be.PutUint32(ip[12:], p.SrcIP)
	be.PutUint32(ip[16:], p.DstIP)
	be.PutUint16(ip[10:], ipChecksum(ip[:20]))
	l4 := ip[20:]
	switch p.Proto {
	case ProtoTCP:
		be.PutUint16(l4[0:], p.SrcPort)
		be.PutUint16(l4[2:], p.DstPort)
		be.PutUint32(l4[4:], p.Seq)
		be.PutUint32(l4[8:], 0) // ack
		l4[12] = 5 << 4         // data offset
		l4[13] = p.TCPFlags
		be.PutUint16(l4[14:], 65535) // window
		be.PutUint16(l4[16:], 0)     // checksum (not computed: payload elided)
		be.PutUint16(l4[18:], 0)     // urgent
	case ProtoUDP:
		be.PutUint16(l4[0:], p.SrcPort)
		be.PutUint16(l4[2:], p.DstPort)
		be.PutUint16(l4[4:], uint16(8+int(p.PayloadLen)))
		be.PutUint16(l4[6:], 0)
	default:
		return 0, ErrProto
	}
	return need, nil
}

// Unmarshal decodes a packet from buf into p, returning bytes consumed.
func (p *Packet) Unmarshal(buf []byte) (int, error) {
	if len(buf) < ShimLen+20 {
		return 0, ErrShort
	}
	be := binary.BigEndian
	p.Meta.Clock = be.Uint64(buf[0:])
	p.Meta.BitVec = be.Uint32(buf[8:])
	p.Meta.Flags = buf[12]
	p.Meta.CloneID = be.Uint16(buf[13:])
	p.Meta.Class = buf[15]
	ip := buf[ShimLen:]
	if ip[0]>>4 != 4 {
		return 0, ErrVersion
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < 20 || len(ip) < ihl {
		return 0, ErrShort
	}
	if sum := ipChecksum(ip[:20]); sum != 0 {
		return 0, fmt.Errorf("packet: bad IPv4 checksum %#04x", sum)
	}
	totalLen := int(be.Uint16(ip[2:]))
	p.Proto = ip[9]
	p.SrcIP = be.Uint32(ip[12:])
	p.DstIP = be.Uint32(ip[16:])
	l4 := ip[ihl:]
	switch p.Proto {
	case ProtoTCP:
		if len(l4) < 20 {
			return 0, ErrShort
		}
		p.SrcPort = be.Uint16(l4[0:])
		p.DstPort = be.Uint16(l4[2:])
		p.Seq = be.Uint32(l4[4:])
		p.TCPFlags = l4[13]
		p.PayloadLen = uint16(totalLen - 20 - 20)
		return ShimLen + ihl + 20, nil
	case ProtoUDP:
		if len(l4) < 8 {
			return 0, ErrShort
		}
		p.SrcPort = be.Uint16(l4[0:])
		p.DstPort = be.Uint16(l4[2:])
		p.TCPFlags = 0
		p.Seq = 0
		p.PayloadLen = uint16(totalLen - 20 - 8)
		return ShimLen + ihl + 8, nil
	default:
		return 0, ErrProto
	}
}

// ipChecksum computes the RFC 791 header checksum; over a header whose
// checksum field holds the correct value it returns 0.
func ipChecksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		sum += uint32(hdr[i])<<8 | uint32(hdr[i+1])
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
