package trace

import (
	"math/rand"
	"slices"
	"sort"
	"time"

	"chc/internal/packet"
	"chc/internal/vtime"
)

// Event is one packet arrival at the chain input.
type Event struct {
	At  vtime.Time
	Pkt *packet.Packet
}

// Trace is a time-ordered packet sequence.
type Trace struct {
	Events []Event
}

// Len returns the number of packets.
func (t *Trace) Len() int { return len(t.Events) }

// Bytes returns the total wire bytes.
func (t *Trace) Bytes() int64 {
	var n int64
	for _, e := range t.Events {
		n += int64(e.Pkt.WireLen())
	}
	return n
}

// Duration returns the time of the last event.
func (t *Trace) Duration() time.Duration {
	if len(t.Events) == 0 {
		return 0
	}
	return time.Duration(t.Events[len(t.Events)-1].At)
}

// Pace assigns constant-bit-rate arrival times for a target offered load in
// bits per second: each packet arrives one serialization time after the
// previous. Load experiments ("30% load" = 3Gbps on a 10G link) use this.
func (t *Trace) Pace(bps int64) {
	var now vtime.Time
	for i := range t.Events {
		gap := time.Duration(int64(t.Events[i].Pkt.WireLen()) * 8 * int64(time.Second) / bps)
		now = now.Add(gap)
		t.Events[i].At = now
	}
}

// PaceClasses assigns constant-bit-rate arrivals independently per traffic
// class: classOf maps each packet to an index into bps (out-of-range
// indices use bps[0]), every class paces its own packet stream at its own
// rate, and the streams merge by arrival time. This is what drives a
// policy-DAG fork with per-branch offered loads. The sort is stable, so
// same-instant packets keep their generation-order interleave.
func (t *Trace) PaceClasses(classOf func(*packet.Packet) int, bps []int64) {
	if len(bps) == 0 {
		return
	}
	now := make([]vtime.Time, len(bps))
	for i := range t.Events {
		ci := classOf(t.Events[i].Pkt)
		if ci < 0 || ci >= len(bps) {
			ci = 0
		}
		gap := time.Duration(int64(t.Events[i].Pkt.WireLen()) * 8 * int64(time.Second) / bps[ci])
		now[ci] = now[ci].Add(gap)
		t.Events[i].At = now[ci]
	}
	sort.SliceStable(t.Events, func(a, b int) bool { return t.Events[a].At < t.Events[b].At })
}

// ClassOfProto maps a packet to 0 (TCP and anything else) or 1 (UDP): the
// classOf counterpart of the runtime's default proto fork classifier.
func ClassOfProto(p *packet.Packet) int {
	if p.Proto == packet.ProtoUDP {
		return 1
	}
	return 0
}

// Config controls synthetic trace generation.
type Config struct {
	Seed  int64
	Flows int // TCP connections to generate
	// PktsPerFlowMean is the mean packets per flow (Trace2: 6.4M/199K ≈ 32).
	PktsPerFlowMean int
	// PayloadMedian is the median data-packet payload (Trace2 median packet
	// 1434B ⇒ ~1394B TCP payload).
	PayloadMedian int
	Hosts         int // internal /24 host count
	Servers       int // external server count
	// UDPFrac is the fraction of flows generated as UDP request/response
	// exchanges (DNS-style, port 53) instead of TCP connections. Zero keeps
	// the all-TCP workload — and, deliberately, the exact RNG draw sequence
	// of earlier traces, so existing seeded experiments are unchanged.
	// Mixed-class traces drive policy-DAG fork classifiers.
	UDPFrac float64
	// UDPPayloadMedian is the median UDP response payload; zero uses 256B.
	UDPPayloadMedian int
}

const (
	internalNet = uint32(0x0A000000) // 10.0.0.0
	externalNet = uint32(0xC6336400) // 198.51.100.0
)

// HostIP returns the i'th internal host address.
func HostIP(i int) uint32 { return internalNet | uint32(i&0xFFFF) + 1 }

// ServerIP returns the i'th external server address.
func ServerIP(i int) uint32 { return externalNet | uint32(i&0xFF) + 1 }

func appPort(a packet.App) uint16 {
	switch a {
	case packet.AppSSH:
		return packet.PortSSH
	case packet.AppFTP:
		return packet.PortFTP
	case packet.AppIRC:
		return packet.PortIRC
	case packet.AppDNS:
		return packet.PortDNS
	default:
		return packet.PortHTTP
	}
}

// flowPackets emits one TCP connection: SYN, SYN-ACK, ACK, data in both
// directions, FIN exchange. Sizes cluster around the payload median.
func flowPackets(r *rand.Rand, src, dst uint32, sport, dport uint16, nData, payloadMedian int) []*packet.Packet {
	mk := func(fromSrc bool, flags uint8, payload int) *packet.Packet {
		p := &packet.Packet{Proto: packet.ProtoTCP, TCPFlags: flags, PayloadLen: uint16(payload)}
		if fromSrc {
			p.SrcIP, p.DstIP, p.SrcPort, p.DstPort = src, dst, sport, dport
		} else {
			p.SrcIP, p.DstIP, p.SrcPort, p.DstPort = dst, src, dport, sport
		}
		return p
	}
	pkts := []*packet.Packet{
		mk(true, packet.FlagSYN, 0),
		mk(false, packet.FlagSYN|packet.FlagACK, 0),
		mk(true, packet.FlagACK, 0),
	}
	for i := 0; i < nData; i++ {
		// ~80% of data flows downstream (server->client), like the paper's
		// inbound EC2 traffic; sizes jitter ±20% around the median.
		fromSrc := r.Intn(5) == 0
		size := payloadMedian * (80 + r.Intn(41)) / 100
		if size < 1 {
			size = 1
		}
		if size > 1460 {
			size = 1460
		}
		pkts = append(pkts, mk(fromSrc, packet.FlagACK|packet.FlagPSH, size))
	}
	pkts = append(pkts,
		mk(true, packet.FlagFIN|packet.FlagACK, 0),
		mk(false, packet.FlagFIN|packet.FlagACK, 0),
	)
	return pkts
}

// udpFlowPackets emits one UDP request/response exchange sequence
// (DNS-style): nPairs small queries, each answered by a jittered response
// around the payload median.
func udpFlowPackets(r *rand.Rand, src, dst uint32, sport, dport uint16, nPairs, payloadMedian int) []*packet.Packet {
	mk := func(fromSrc bool, payload int) *packet.Packet {
		p := &packet.Packet{Proto: packet.ProtoUDP, PayloadLen: uint16(payload)}
		if fromSrc {
			p.SrcIP, p.DstIP, p.SrcPort, p.DstPort = src, dst, sport, dport
		} else {
			p.SrcIP, p.DstIP, p.SrcPort, p.DstPort = dst, src, dport, sport
		}
		return p
	}
	var pkts []*packet.Packet
	for i := 0; i < nPairs; i++ {
		query := 40 + r.Intn(80)
		resp := payloadMedian * (80 + r.Intn(41)) / 100
		if resp < 1 {
			resp = 1
		}
		if resp > 1460 {
			resp = 1460
		}
		pkts = append(pkts, mk(true, query), mk(false, resp))
	}
	return pkts
}

// appMix is the application mix every trace draws from, one entry per
// unit of weight in App order: HTTP-dominated, with SSH/FTP/IRC present.
var appMix = func() []packet.App {
	var apps []packet.App
	for _, w := range []struct {
		app packet.App
		n   int
	}{{packet.AppHTTP, 84}, {packet.AppDNS, 8}, {packet.AppSSH, 3}, {packet.AppFTP, 3}, {packet.AppIRC, 2}} {
		for range w.n {
			apps = append(apps, w.app)
		}
	}
	slices.Sort(apps)
	return apps
}()

// Generate builds a synthetic trace. Events are produced with zero
// timestamps in a globally interleaved arrival order; call Pace to assign
// arrival times for a target load.
func Generate(cfg Config) *Trace {
	r := rand.New(rand.NewSource(cfg.Seed))

	type flowState struct {
		pkts []*packet.Packet
		next int
	}
	flows := make([]*flowState, cfg.Flows)
	ephemeral := uint16(20000)
	udpPayload := cfg.UDPPayloadMedian
	if udpPayload == 0 {
		udpPayload = 256
	}
	for i := range flows {
		// The short-circuit matters: with UDPFrac == 0 no extra RNG draw
		// happens, so all-TCP traces are bit-identical to pre-UDP ones.
		isUDP := cfg.UDPFrac > 0 && r.Float64() < cfg.UDPFrac
		app := appMix[r.Intn(len(appMix))]
		src := HostIP(r.Intn(cfg.Hosts))
		dst := ServerIP(r.Intn(cfg.Servers))
		ephemeral++
		if ephemeral < 20000 {
			ephemeral = 20000
		}
		// Packets per flow: geometric-ish around the mean, min 1 data pkt.
		nData := 1 + r.Intn(2*cfg.PktsPerFlowMean-1)
		if isUDP {
			flows[i] = &flowState{pkts: udpFlowPackets(r, src, dst, ephemeral, packet.PortDNS, nData, udpPayload)}
		} else {
			flows[i] = &flowState{pkts: flowPackets(r, src, dst, ephemeral, appPort(app), nData, cfg.PayloadMedian)}
		}
	}

	// Interleave flows: active window advances as flows start/finish,
	// giving realistic concurrency without quadratic work.
	tr := &Trace{}
	const window = 64
	active := []*flowState{}
	nextFlow := 0
	for {
		for len(active) < window && nextFlow < len(flows) {
			active = append(active, flows[nextFlow])
			nextFlow++
		}
		if len(active) == 0 {
			break
		}
		fi := r.Intn(len(active))
		f := active[fi]
		tr.Events = append(tr.Events, Event{Pkt: f.pkts[f.next]})
		f.next++
		if f.next == len(f.pkts) {
			active[fi] = active[len(active)-1]
			active = active[:len(active)-1]
		}
	}
	return tr
}

// InjectPortscan appends a scanning host's probe packets interleaved through
// the trace starting at index at: count SYNs to distinct destinations, a
// fraction failing (RST response), which is what the TRW detector keys on.
func InjectPortscan(tr *Trace, scanner uint32, count int, failFrac float64, at int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	var probes []*packet.Packet
	for i := 0; i < count; i++ {
		dst := ServerIP(i)
		sport := uint16(30000 + i)
		dport := uint16(1 + r.Intn(1024))
		syn := &packet.Packet{Proto: packet.ProtoTCP, TCPFlags: packet.FlagSYN,
			SrcIP: scanner, DstIP: dst, SrcPort: sport, DstPort: dport}
		probes = append(probes, syn)
		if r.Float64() < failFrac {
			rst := &packet.Packet{Proto: packet.ProtoTCP, TCPFlags: packet.FlagRST,
				SrcIP: dst, DstIP: scanner, SrcPort: dport, DstPort: sport}
			probes = append(probes, rst)
		} else {
			sa := &packet.Packet{Proto: packet.ProtoTCP, TCPFlags: packet.FlagSYN | packet.FlagACK,
				SrcIP: dst, DstIP: scanner, SrcPort: dport, DstPort: sport}
			probes = append(probes, sa)
		}
	}
	insertInterleaved(tr, probes, at, 4)
}

// TrojanSignature describes one implanted Trojan sequence (§2.1): an SSH
// connection, then FTP transfers, then IRC activity from the same host, in
// that arrival order.
type TrojanSignature struct {
	Host  uint32
	Index int // insertion point in the trace
}

// InjectTrojan implants n Trojan signatures at evenly spaced points,
// returning their descriptions. Each signature's SSH→FTP→IRC ordering in
// the input trace is what the detector must recover chain-wide.
func InjectTrojan(tr *Trace, n int, seed int64) []TrojanSignature {
	r := rand.New(rand.NewSource(seed))
	var sigs []TrojanSignature
	stride := len(tr.Events) / (n + 1)
	if stride == 0 {
		stride = 1
	}
	for i := 0; i < n; i++ {
		host := HostIP(128 + i) // hosts outside the background population
		at := stride * (i + 1)
		if at > len(tr.Events) {
			at = len(tr.Events)
		}
		srv := ServerIP(40 + i)
		var pkts []*packet.Packet
		sport := uint16(40000 + 3*i)
		// SSH connection.
		pkts = append(pkts, flowPackets(r, host, srv, sport, packet.PortSSH, 2, 256)...)
		// FTP downloads (HTML, ZIP, EXE → three data exchanges).
		pkts = append(pkts, flowPackets(r, host, srv, sport+1, packet.PortFTP, 6, 1024)...)
		// IRC activity.
		pkts = append(pkts, flowPackets(r, host, srv, sport+2, packet.PortIRC, 3, 128)...)
		// Interleave with background traffic so the gaps between the three
		// connections vary, as they would in a live capture.
		insertInterleaved(tr, pkts, at, 2+r.Intn(4))
		sigs = append(sigs, TrojanSignature{Host: host, Index: at})
	}
	return sigs
}

// InjectBenignTrojanLike implants a near-miss: same three connections but in
// a non-Trojan order (IRC before SSH), which a correct detector must NOT
// flag. Used to check false positives.
func InjectBenignTrojanLike(tr *Trace, n int, seed int64) []TrojanSignature {
	r := rand.New(rand.NewSource(seed))
	var sigs []TrojanSignature
	stride := len(tr.Events) / (n + 1)
	if stride == 0 {
		stride = 1
	}
	for i := 0; i < n; i++ {
		host := HostIP(200 + i)
		at := stride*(i+1) + 7
		if at > len(tr.Events) {
			at = len(tr.Events)
		}
		srv := ServerIP(60 + i)
		var pkts []*packet.Packet
		sport := uint16(45000 + 3*i)
		pkts = append(pkts, flowPackets(r, host, srv, sport, packet.PortIRC, 3, 128)...)
		pkts = append(pkts, flowPackets(r, host, srv, sport+1, packet.PortFTP, 6, 1024)...)
		pkts = append(pkts, flowPackets(r, host, srv, sport+2, packet.PortSSH, 2, 256)...)
		insertSequential(tr, pkts, at)
		sigs = append(sigs, TrojanSignature{Host: host, Index: at})
	}
	return sigs
}

// insertSequential splices pkts into the trace at index at, preserving their
// relative order back-to-back.
func insertSequential(tr *Trace, pkts []*packet.Packet, at int) {
	evs := make([]Event, len(pkts))
	for i, p := range pkts {
		evs[i] = Event{Pkt: p}
	}
	tr.Events = append(tr.Events[:at], append(evs, tr.Events[at:]...)...)
}

// insertInterleaved splices pkts starting at index at with the given stride
// of background packets between consecutive inserted ones.
func insertInterleaved(tr *Trace, pkts []*packet.Packet, at, stride int) {
	out := make([]Event, 0, len(tr.Events)+len(pkts))
	out = append(out, tr.Events[:min(at, len(tr.Events))]...)
	bg := tr.Events[min(at, len(tr.Events)):]
	pi := 0
	for len(bg) > 0 || pi < len(pkts) {
		if pi < len(pkts) {
			out = append(out, Event{Pkt: pkts[pi]})
			pi++
		}
		for s := 0; s < stride && len(bg) > 0; s++ {
			out = append(out, bg[0])
			bg = bg[1:]
		}
	}
	tr.Events = out
}
