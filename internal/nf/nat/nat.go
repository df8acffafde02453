// Package nat implements the paper's NAT (§6, Table 4). State objects:
//
//	available ports     cross-flow, write/read often  (List in the store)
//	total TCP packets   cross-flow, write mostly      (counter)
//	total packets       cross-flow, write mostly      (counter)
//	per-conn port map   per-flow,   write rarely/read mostly
//
// On a new connection the NAT pops an available port from the store (the
// store executes the pop on the NF's behalf) and records the mapping once;
// every packet updates the L3/L4 counters and is rewritten to the external
// address/port.
package nat

import (
	"chc/internal/nf"
	"chc/internal/packet"
	"chc/internal/store"
)

// State object IDs.
const (
	ObjPorts   uint16 = 1 // available port pool
	ObjTCPPkts uint16 = 2 // total TCP packets
	ObjTotal   uint16 = 3 // total packets
	ObjPortMap uint16 = 4 // per-connection port mapping
)

// ExternalIP is the NAT's public address in rewritten packets.
const ExternalIP = uint32(0xC0A80001) // 192.168.0.1

// NAT is the network address translator.
type NAT struct {
	// PortRangeStart/Count seed the available-port pool.
	PortRangeStart int64
	PortRangeCount int64

	decls   nf.DeclSet
	ports   nf.Pool
	tcpPkts nf.Counter
	total   nf.Counter
	portMap nf.Gauge
}

// New returns a NAT with the default port pool.
func New() *NAT {
	n := &NAT{PortRangeStart: 10000, PortRangeCount: 4096}
	n.ports = n.decls.Pool(ObjPorts, "available-ports", store.ScopeGlobal, store.WriteReadOften)
	n.tcpPkts = n.decls.Counter(ObjTCPPkts, "tcp-packets", store.ScopeGlobal, store.WriteMostly)
	n.total = n.decls.Counter(ObjTotal, "total-packets", store.ScopeGlobal, store.WriteMostly)
	n.portMap = n.decls.Gauge(ObjPortMap, "port-mapping", store.ScopeFlow, store.ReadHeavy)
	return n
}

// Name implements nf.NF.
func (n *NAT) Name() string { return "nat" }

// Decls implements nf.NF (the Table 4 rows, declared once in New).
func (n *NAT) Decls() []store.ObjDecl { return n.decls.List() }

// SeedPorts populates the shared port pool; the deployment calls this once
// against whatever backend the vertex uses.
func (n *NAT) SeedPorts(seed nf.Seeder) {
	for i := int64(0); i < n.PortRangeCount; i++ {
		n.ports.SeedPush(seed, n.PortRangeStart+i)
	}
}

// Process implements nf.NF.
func (n *NAT) Process(ctx *nf.Ctx, pkt *packet.Packet) []*packet.Packet {
	conn := pkt.Key().Canonical().Hash()

	// Per-packet counters (write-mostly, read-rarely: non-blocking ops).
	n.total.Incr(ctx, 1)
	if pkt.Proto == packet.ProtoTCP {
		n.tcpPkts.Incr(ctx, 1)
	}

	var port int64
	if pkt.IsSYN() {
		// New connection: the store pops an available port on our behalf.
		p, ok := n.ports.Pop(ctx)
		if !ok {
			ctx.Alert(nf.Alert{NF: n.Name(), Kind: "port-exhausted", Host: pkt.SrcIP})
			return ctx.Emit() // drop: no ports available
		}
		port = p
		n.portMap.Set(ctx, conn, port)
	} else {
		p, ok := n.portMap.Get(ctx, conn)
		if !ok {
			// Unknown connection (mid-stream packet): forward unmodified.
			return ctx.Emit(pkt)
		}
		port = p
	}

	if pkt.IsFIN() || pkt.IsRST() {
		// Return the port to the pool and drop the mapping.
		n.ports.Push(ctx, port)
		n.portMap.Delete(ctx, conn)
	}

	// Rewrite: outbound traffic is sourced from the external IP/port.
	out := ctx.Clone(pkt)
	if pkt.SrcIP&0xFF000000 == 0x0A000000 { // internal -> external
		out.SrcIP = ExternalIP
		out.SrcPort = uint16(port)
	} else { // inbound: restore destination
		out.DstIP = ExternalIP
		out.DstPort = uint16(port)
	}
	return ctx.Emit(out)
}
