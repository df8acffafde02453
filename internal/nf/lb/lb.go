// Package lb implements the paper's load balancer (§6, Table 4). State:
//
//	per-server active connections  cross-flow, write/read often (Map)
//	per-server byte counter        cross-flow, write mostly     (counters)
//	connection-to-server mapping   per-flow,   write rarely/read mostly
//
// On a new connection the store picks the least-loaded backend on the NF's
// behalf (offloaded min-increment); every packet updates the chosen server's
// byte counter and is rewritten toward it.
package lb

import (
	"fmt"
	"strconv"

	"chc/internal/nf"
	"chc/internal/packet"
	"chc/internal/store"
)

// State object IDs.
const (
	ObjServerConns uint16 = 1 // map server -> active connections
	ObjServerBytes uint16 = 2 // per-server byte counters (Sub = server index)
	ObjConnMap     uint16 = 3 // per-flow chosen server index
)

// Balancer spreads connections over Backends.
type Balancer struct {
	// Backends are the server addresses; index is the stored server id.
	Backends []uint32

	decls       nf.DeclSet
	serverConns nf.Map
	serverBytes nf.Counter
	connMap     nf.Gauge
}

// New returns a balancer over n synthetic backends.
func New(n int) *Balancer {
	b := &Balancer{}
	for i := 0; i < n; i++ {
		b.Backends = append(b.Backends, 0xC0A86400|uint32(i+1)) // 192.168.100.x
	}
	b.serverConns = b.decls.Map(ObjServerConns, "server-conns", store.ScopeGlobal, store.WriteReadOften)
	b.serverBytes = b.decls.Counter(ObjServerBytes, "server-bytes", store.ScopeGlobal, store.WriteMostly)
	b.connMap = b.decls.Gauge(ObjConnMap, "conn-server", store.ScopeFlow, store.ReadHeavy)
	return b
}

// Name implements nf.NF.
func (b *Balancer) Name() string { return "lb" }

// Decls implements nf.NF (declared once in New).
func (b *Balancer) Decls() []store.ObjDecl { return b.decls.List() }

// serverField is the map key for backend i.
func serverField(i int) string { return fmt.Sprintf("s%03d", i) }

// serverIndex parses a serverField key back to its backend index.
func serverIndex(field string) (int, bool) {
	if len(field) < 2 || field[0] != 's' {
		return 0, false
	}
	i, err := strconv.Atoi(field[1:])
	return i, err == nil
}

// SeedServers initializes the per-server connection counts to zero so
// min-increment sees every backend.
func (b *Balancer) SeedServers(seed nf.Seeder) {
	for i := range b.Backends {
		b.serverConns.SeedSet(seed, serverField(i), 0)
	}
}

// Process implements nf.NF.
func (b *Balancer) Process(ctx *nf.Ctx, pkt *packet.Packet) []*packet.Packet {
	conn := pkt.Key().Canonical().Hash()
	var serverIdx int64 = -1

	if pkt.IsSYN() {
		// The store picks the least-loaded backend and bumps its count.
		field, ok := b.serverConns.MinIncr(ctx, 0, 1)
		if !ok {
			return ctx.Emit()
		}
		idx, ok := serverIndex(field)
		if !ok {
			return ctx.Emit()
		}
		serverIdx = int64(idx)
		b.connMap.Set(ctx, conn, serverIdx)
	} else {
		v, ok := b.connMap.Get(ctx, conn)
		if !ok {
			return ctx.Emit(pkt)
		}
		serverIdx = v
	}

	// Every packet: the chosen server's byte counter (write-mostly).
	b.serverBytes.IncrAt(ctx, uint64(serverIdx), int64(pkt.WireLen()))

	if pkt.IsFIN() || pkt.IsRST() {
		b.serverConns.Incr(ctx, 0, serverField(int(serverIdx)), -1)
		b.connMap.Delete(ctx, conn)
	}

	out := ctx.Clone(pkt)
	if int(serverIdx) < len(b.Backends) {
		out.DstIP = b.Backends[serverIdx]
	}
	return ctx.Emit(out)
}
