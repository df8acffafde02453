package nf_test

import (
	"testing"

	"chc/internal/nf"
	"chc/internal/nf/lb"
	"chc/internal/nf/nat"
	"chc/internal/nf/portscan"
	"chc/internal/nf/trojan"
	"chc/internal/packet"
	"chc/internal/store"
)

// harness runs an NF against a LocalState backend with synthetic clocks.
type harness struct {
	ctx    *nf.Ctx
	local  *nf.LocalState
	alerts []nf.Alert
	clock  uint64
}

func newHarness(vertex uint16) *harness {
	h := &harness{local: nf.NewLocalState(vertex, 1)}
	h.ctx = nf.NewCtx(nil, h.local, func(a nf.Alert) { h.alerts = append(h.alerts, a) })
	return h
}

func (h *harness) process(n nf.NF, pkts ...*packet.Packet) []*packet.Packet {
	var out []*packet.Packet
	for _, p := range pkts {
		h.clock++
		h.ctx.Clock = h.clock
		h.ctx.Seq = h.clock
		out = append(out, n.Process(h.ctx, p)...)
	}
	return out
}

func tcp(src, dst uint32, sport, dport uint16, flags uint8, payload int) *packet.Packet {
	return &packet.Packet{Proto: packet.ProtoTCP, SrcIP: src, DstIP: dst,
		SrcPort: sport, DstPort: dport, TCPFlags: flags, PayloadLen: uint16(payload)}
}

const (
	hostA = uint32(0x0A000001)
	hostB = uint32(0x0A000002)
	srv1  = uint32(0xC6336401)
)

func TestScopesOfOrdering(t *testing.T) {
	scopes := nf.ScopesOf(nat.New())
	if len(scopes) != 2 || scopes[0] != store.ScopeFlow || scopes[1] != store.ScopeGlobal {
		t.Fatalf("scopes = %v, want [flow global]", scopes)
	}
}

func TestNATAllocatesAndRewrites(t *testing.T) {
	h := newHarness(1)
	n := nat.New()
	n.SeedPorts(func(r store.Request) { h.local.UpdateBlocking(h.ctx, r) })

	syn := tcp(hostA, srv1, 30000, 80, packet.FlagSYN, 0)
	out := h.process(n, syn)
	if len(out) != 1 {
		t.Fatalf("SYN output = %d packets", len(out))
	}
	if out[0].SrcIP != nat.ExternalIP {
		t.Fatalf("src not rewritten: %x", out[0].SrcIP)
	}
	allocated := out[0].SrcPort
	if allocated != 10000 {
		t.Fatalf("allocated port %d, want 10000 (FIFO pool)", allocated)
	}
	// Subsequent packet of the same flow gets the same mapping.
	data := tcp(hostA, srv1, 30000, 80, packet.FlagACK|packet.FlagPSH, 500)
	out = h.process(n, data)
	if out[0].SrcPort != allocated {
		t.Fatalf("mapping not stable: %d vs %d", out[0].SrcPort, allocated)
	}
	// Counters.
	v, _ := h.ctx.Get(nat.ObjTotal, 0)
	if v.Int != 2 {
		t.Fatalf("total packets = %d, want 2", v.Int)
	}
	v, _ = h.ctx.Get(nat.ObjTCPPkts, 0)
	if v.Int != 2 {
		t.Fatalf("tcp packets = %d, want 2", v.Int)
	}
}

func TestNATReleasesPortOnFIN(t *testing.T) {
	h := newHarness(1)
	n := nat.New()
	n.PortRangeCount = 1 // single port: must be recycled
	n.SeedPorts(func(r store.Request) { h.local.UpdateBlocking(h.ctx, r) })

	h.process(n, tcp(hostA, srv1, 30000, 80, packet.FlagSYN, 0))
	h.process(n, tcp(hostA, srv1, 30000, 80, packet.FlagFIN|packet.FlagACK, 0))
	// New flow must get the recycled port, not exhaust.
	out := h.process(n, tcp(hostB, srv1, 30001, 80, packet.FlagSYN, 0))
	if len(out) != 1 || out[0].SrcPort != 10000 {
		t.Fatalf("port not recycled: %+v", out)
	}
	if len(h.alerts) != 0 {
		t.Fatalf("unexpected alerts: %v", h.alerts)
	}
}

func TestNATPortExhaustion(t *testing.T) {
	h := newHarness(1)
	n := nat.New()
	n.PortRangeCount = 1
	n.SeedPorts(func(r store.Request) { h.local.UpdateBlocking(h.ctx, r) })
	h.process(n, tcp(hostA, srv1, 30000, 80, packet.FlagSYN, 0))
	out := h.process(n, tcp(hostB, srv1, 30001, 80, packet.FlagSYN, 0))
	if len(out) != 0 {
		t.Fatal("exhausted NAT forwarded a SYN")
	}
	if len(h.alerts) != 1 || h.alerts[0].Kind != "port-exhausted" {
		t.Fatalf("alerts = %v", h.alerts)
	}
}

// scanFlow pushes one probe (SYN then RST or SYN-ACK response) through the
// detector.
func scanFlow(h *harness, d *portscan.Detector, host uint32, i int, fail bool) {
	dst := srv1 + uint32(i)
	sport := uint16(30000 + i)
	h.process(d, tcp(host, dst, sport, 80, packet.FlagSYN, 0))
	if fail {
		h.process(d, tcp(dst, host, 80, sport, packet.FlagRST, 0))
	} else {
		h.process(d, tcp(dst, host, 80, sport, packet.FlagSYN|packet.FlagACK, 0))
	}
}

func TestPortscanDetectsScanner(t *testing.T) {
	h := newHarness(2)
	d := portscan.New()
	for i := 0; i < 5; i++ {
		scanFlow(h, d, hostA, i, true) // all failures
	}
	if !d.Blocked(hostA) {
		t.Fatal("scanner not detected after 5 failures")
	}
	found := false
	for _, a := range h.alerts {
		if a.Kind == "scanner-detected" && a.Host == hostA {
			found = true
		}
	}
	if !found {
		t.Fatalf("no scanner alert: %v", h.alerts)
	}
}

func TestPortscanSparesBenignHost(t *testing.T) {
	h := newHarness(2)
	d := portscan.New()
	// Mostly successful connections with occasional failures.
	for i := 0; i < 20; i++ {
		scanFlow(h, d, hostB, i, i%5 == 0)
	}
	if d.Blocked(hostB) {
		t.Fatal("benign host blocked (false positive)")
	}
}

// trojanConn sends a connection-open for the given app from host.
func trojanConn(h *harness, d *trojan.Detector, host uint32, app uint16, i int) {
	h.process(d, tcp(host, srv1, uint16(40000+i), app, packet.FlagSYN, 0))
}

func TestTrojanDetectsOrderedSignature(t *testing.T) {
	h := newHarness(3)
	d := trojan.New()
	trojanConn(h, d, hostA, packet.PortSSH, 0)
	trojanConn(h, d, hostA, packet.PortFTP, 1)
	trojanConn(h, d, hostA, packet.PortIRC, 2)
	if !d.Detected(hostA) {
		t.Fatal("ordered SSH->FTP->IRC not detected")
	}
}

func TestTrojanIgnoresWrongOrder(t *testing.T) {
	h := newHarness(3)
	d := trojan.New()
	trojanConn(h, d, hostB, packet.PortIRC, 0)
	trojanConn(h, d, hostB, packet.PortFTP, 1)
	trojanConn(h, d, hostB, packet.PortSSH, 2)
	if d.Detected(hostB) {
		t.Fatal("benign order flagged (false positive)")
	}
}

func TestTrojanClocksBeatArrivalOrder(t *testing.T) {
	// The FTP and SSH connection packets arrive at the detector out of order
	// (upstream slowdown), but their logical clocks carry the true order.
	// With clocks the detector must still fire; with arrival order it must
	// miss — exactly the R4 experiment's mechanism.
	run := func(d *trojan.Detector) bool {
		h := newHarness(3)
		// True order: SSH(clock 10), FTP(20), IRC(30). Arrival: FTP first.
		mk := func(app uint16, i int) *packet.Packet {
			return tcp(hostA, srv1, uint16(41000+i), app, packet.FlagSYN, 0)
		}
		deliver := func(p *packet.Packet, clock uint64, seq uint64) {
			h.ctx.Clock = clock
			h.ctx.Seq = seq
			d.Process(h.ctx, p)
		}
		deliver(mk(packet.PortFTP, 1), 20, 1) // arrives first
		deliver(mk(packet.PortSSH, 0), 10, 2) // delayed upstream
		deliver(mk(packet.PortIRC, 2), 30, 3)
		return d.Detected(hostA)
	}
	if !run(trojan.New()) {
		t.Fatal("clock-based detector missed reordered signature")
	}
	if run(trojan.NewArrivalOrder()) {
		t.Fatal("arrival-order detector should miss the reordered signature")
	}
}

func TestLBPicksLeastLoaded(t *testing.T) {
	h := newHarness(4)
	b := lb.New(3)
	b.SeedServers(func(r store.Request) { h.local.UpdateBlocking(h.ctx, r) })
	// Three connections: must land on three distinct backends.
	seen := make(map[uint32]bool)
	for i := 0; i < 3; i++ {
		out := h.process(b, tcp(hostA, srv1, uint16(30000+i), 80, packet.FlagSYN, 0))
		if len(out) != 1 {
			t.Fatalf("conn %d: %d outputs", i, len(out))
		}
		seen[out[0].DstIP] = true
	}
	if len(seen) != 3 {
		t.Fatalf("connections spread over %d backends, want 3", len(seen))
	}
}

func TestLBStickyMapping(t *testing.T) {
	h := newHarness(4)
	b := lb.New(3)
	b.SeedServers(func(r store.Request) { h.local.UpdateBlocking(h.ctx, r) })
	out := h.process(b, tcp(hostA, srv1, 30000, 80, packet.FlagSYN, 0))
	chosen := out[0].DstIP
	for i := 0; i < 5; i++ {
		out = h.process(b, tcp(hostA, srv1, 30000, 80, packet.FlagACK|packet.FlagPSH, 900))
		if out[0].DstIP != chosen {
			t.Fatalf("packet %d rerouted: %x vs %x", i, out[0].DstIP, chosen)
		}
	}
	// Byte counter grew.
	v, _ := h.ctx.Get(lb.ObjServerBytes, 0)
	sum := v.Int
	for s := uint64(1); s < 3; s++ {
		v, _ = h.ctx.Get(lb.ObjServerBytes, s)
		sum += v.Int
	}
	if sum == 0 {
		t.Fatal("no byte accounting")
	}
}

func TestLBReleasesOnFIN(t *testing.T) {
	h := newHarness(4)
	b := lb.New(2)
	b.SeedServers(func(r store.Request) { h.local.UpdateBlocking(h.ctx, r) })
	h.process(b, tcp(hostA, srv1, 30000, 80, packet.FlagSYN, 0))
	h.process(b, tcp(hostA, srv1, 30000, 80, packet.FlagFIN|packet.FlagACK, 0))
	v, ok := h.ctx.Get(lb.ObjServerConns, 0)
	if !ok {
		t.Fatal("no server conns map")
	}
	for f, n := range v.Map {
		if n != 0 {
			t.Fatalf("server %s still has %d conns after FIN", f, n)
		}
	}
}

func TestAlertCarriesClock(t *testing.T) {
	h := newHarness(2)
	d := portscan.New()
	for i := 0; i < 5; i++ {
		scanFlow(h, d, hostA, i, true)
	}
	if len(h.alerts) == 0 || h.alerts[0].Clock == 0 {
		t.Fatalf("alert missing clock: %+v", h.alerts)
	}
}

// TestMidFlowPacketAllocs runs an established flow's packet through nat,
// portscan and lb the way an instance does — an arena-backed Ctx per NF,
// the input released when the NF emits a rewritten copy instead — and
// wants no allocation: the outputs live in the Ctx's Emit buffer and the
// rewritten copies come from the arena.
func TestMidFlowPacketAllocs(t *testing.T) {
	arena := packet.NewArena(true)
	natNF, lbNF := nat.New(), lb.New(8)
	stages := []struct {
		nf  nf.NF
		ctx *nf.Ctx
	}{{nf: natNF}, {nf: portscan.New()}, {nf: lbNF}}
	for i := range stages {
		ls := nf.NewLocalState(uint16(i+1), 1)
		stages[i].ctx = nf.NewCtx(nil, ls, nil)
		stages[i].ctx.Arena = arena
	}
	seed := func(ctx *nf.Ctx) nf.Seeder {
		return func(r store.Request) { ctx.State.UpdateBlocking(ctx, r) }
	}
	natNF.SeedPorts(seed(stages[0].ctx))
	lbNF.SeedServers(seed(stages[2].ctx))

	var clock uint64
	run := func(in *packet.Packet) {
		pkt := arena.Clone(in)
		for _, s := range stages {
			clock++
			s.ctx.ResetPacket(clock, clock)
			outs := s.nf.Process(s.ctx, pkt)
			if len(outs) != 1 {
				t.Fatalf("%s emitted %d packets, want 1", s.nf.Name(), len(outs))
			}
			if outs[0] != pkt {
				arena.Put(pkt)
				pkt = outs[0]
			}
		}
		arena.Put(pkt) // the sink's release
	}
	run(tcp(hostA, srv1, 30000, 80, packet.FlagSYN, 0))
	data := tcp(hostA, srv1, 30000, 80, packet.FlagACK|packet.FlagPSH, 500)
	run(data) // warm the arena and the Emit buffers
	want := 0.0
	if raceEnabled {
		want = 1 // -race's sync.Pool drops a quarter of the Puts
	}
	if got := testing.AllocsPerRun(200, func() { run(data) }); got > want {
		t.Fatalf("mid-flow packet through nat, portscan and lb: %.2f allocs, want at most %.0f", got, want)
	}
}
