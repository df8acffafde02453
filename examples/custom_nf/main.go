// Custom NF with typed state handles: write a new stateful NF without
// touching store.Request. A "meter" NF declares its state objects once at
// construction time — a global packet counter, a per-host packet counter
// and a per-flow byte gauge — and the framework picks each object's
// management strategy (Table 1) from the declared scope + access pattern.
//
//	go run ./examples/custom_nf
package main

import (
	"fmt"
	"time"

	"chc"
	"chc/internal/store"
)

// Meter state object IDs.
const (
	objTotal    uint16 = 1
	objPerHost  uint16 = 2
	objFlowSize uint16 = 3
)

// hostBudget is the per-host packet count that triggers an alert.
const hostBudget = 200

// Meter counts traffic per host and flags heavy hitters.
type Meter struct {
	decls    chc.DeclSet
	total    chc.Counter
	perHost  chc.Counter
	flowSize chc.Gauge
	flagged  map[uint32]bool
}

// NewMeter declares the meter's state objects. The declarations drive the
// framework: the global counter becomes non-blocking offloaded ops (and
// rides the client's op-coalescing path under EO+C+NA), the per-host
// counter is split-aware, the per-flow gauge caches at its owner.
func NewMeter() *Meter {
	m := &Meter{flagged: make(map[uint32]bool)}
	m.total = m.decls.Counter(objTotal, "total-packets", store.ScopeGlobal, store.WriteMostly)
	m.perHost = m.decls.Counter(objPerHost, "host-packets", store.ScopeSrcIP, store.WriteReadOften)
	m.flowSize = m.decls.Gauge(objFlowSize, "flow-bytes", store.ScopeFlow, store.WriteReadOften)
	return m
}

// Name implements chc.NF.
func (m *Meter) Name() string { return "meter" }

// Decls implements chc.NF.
func (m *Meter) Decls() []chc.ObjDecl { return m.decls.List() }

// Process implements chc.NF.
func (m *Meter) Process(ctx *chc.Ctx, pkt *chc.Packet) []*chc.Packet {
	m.total.Incr(ctx, 1) // non-blocking, coalesced under +NA

	host := pkt.SrcIP
	if n, ok := m.perHost.IncrGetAt(ctx, uint64(host), 1); ok && n >= hostBudget && !m.flagged[host] {
		m.flagged[host] = true
		ctx.Alert(chc.Alert{NF: m.Name(), Kind: "heavy-hitter", Host: host})
	}

	flow := pkt.Key().Canonical().Hash()
	if cur, ok := m.flowSize.Get(ctx, flow); ok {
		m.flowSize.Set(ctx, flow, cur+int64(pkt.WireLen()))
	} else {
		m.flowSize.Set(ctx, flow, int64(pkt.WireLen()))
	}
	if pkt.IsFIN() || pkt.IsRST() {
		m.flowSize.Delete(ctx, flow)
	}
	return ctx.Emit(pkt) // forward unchanged; a rewrite would emit ctx.Clone(pkt)
}

func main() {
	cfg := chc.DefaultChainConfig()
	cfg.DefaultServiceTime = 2 * time.Microsecond

	chain := chc.NewChain(cfg, chc.VertexSpec{
		Name:    "meter",
		Make:    func() chc.NF { return NewMeter() },
		Backend: chc.BackendCHC,
		Mode:    chc.ModeEOCNA,
	})
	chain.Start()

	tr := chc.GenerateTrace(chc.TraceConfig{
		Seed: 11, Flows: 300, PktsPerFlowMean: 16, PayloadMedian: 700,
		Hosts: 6, Servers: 8,
	})
	tr.Pace(2_000_000_000)
	chain.RunTrace(tr, 200*time.Millisecond)

	total, _ := chain.StoreGet(store.Key{Vertex: 1, Obj: objTotal})
	fmt.Printf("meter: %d packets metered, %d heavy-hitter alerts\n",
		total.Int, len(chain.Metrics.Alerts))
	fmt.Printf("op coalescing: %d increments merged into %d batched sends (%d async sends total)\n",
		chain.Metrics.Counter("client.coalesced_ops"),
		chain.Metrics.Counter("client.batched_sends"),
		chain.Metrics.Counter("client.async_ops"))
	for _, a := range chain.Metrics.Alerts[:min(3, len(chain.Metrics.Alerts))] {
		fmt.Printf("  alert: %s host=%d.%d.%d.%d clock=%d\n", a.Kind,
			a.Host>>24, a.Host>>16&0xFF, a.Host>>8&0xFF, a.Host&0xFF, a.Clock)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
