// Package portscan implements the paper's portscan detector (§6, Table 4),
// following Schechter/Jung/Berger's Threshold Random Walk [26]: each
// connection attempt's outcome updates the per-host likelihood of being a
// scanner; a host is blocked when the likelihood crosses a threshold.
//
// State objects:
//
//	per-host likelihood   cross-flow, write/read often
//	pending conn attempts per-flow,   write/read often
//
// The likelihood is kept in log space scaled by 1000 so the update is a pure
// increment — commutative and hence offloadable to the store (Table 2).
package portscan

import (
	"chc/internal/nf"
	"chc/internal/packet"
	"chc/internal/store"
)

// State object IDs.
const (
	ObjLikelihood uint16 = 1 // per src-host TRW log-likelihood (x1000)
	ObjPending    uint16 = 2 // per-flow pending connection attempt
)

// TRW constants in log-space x1000: ln(θ1/θ0) with θ0=0.8, θ1=0.2.
const (
	FailDelta    = 1386  // failed connection: likelihood rises
	SuccessDelta = -1386 // successful connection: likelihood falls
	Threshold    = 4000  // ~ln((1-β)/α): 3-4 net failures trigger
)

// Detector is the TRW portscan detector. It is off-path capable: it only
// observes, emitting alerts for hosts judged to be scanners.
type Detector struct {
	blocked map[uint32]bool

	decls      nf.DeclSet
	likelihood nf.Counter
	pending    nf.Gauge
}

// New returns a detector.
func New() *Detector {
	d := &Detector{blocked: make(map[uint32]bool)}
	d.likelihood = d.decls.Counter(ObjLikelihood, "host-likelihood", store.ScopeSrcIP, store.WriteReadOften)
	d.pending = d.decls.Gauge(ObjPending, "pending-conn", store.ScopeFlow, store.WriteReadOften)
	return d
}

// Name implements nf.NF.
func (d *Detector) Name() string { return "portscan" }

// Decls implements nf.NF (declared once in New).
func (d *Detector) Decls() []store.ObjDecl { return d.decls.List() }

// Blocked reports whether the detector has flagged host.
func (d *Detector) Blocked(host uint32) bool { return d.blocked[host] }

// Process implements nf.NF. SYNs record a pending attempt; SYN-ACK marks the
// attempt successful, RST (with a pending attempt) failed. Each outcome
// updates the shared per-host likelihood — a blocking read-back checks the
// threshold, which is the latency the Fig 9 caching experiment measures.
func (d *Detector) Process(ctx *nf.Ctx, pkt *packet.Packet) []*packet.Packet {
	conn := pkt.Key().Canonical().Hash()
	switch {
	case pkt.IsSYN():
		d.pending.Set(ctx, conn, int64(pkt.SrcIP))
	case pkt.IsSYNACK():
		if v, ok := d.pending.Get(ctx, conn); ok {
			host := uint32(v)
			d.updateLikelihood(ctx, host, SuccessDelta)
			d.pending.Delete(ctx, conn)
		}
	case pkt.IsRST():
		if v, ok := d.pending.Get(ctx, conn); ok {
			host := uint32(v)
			d.updateLikelihood(ctx, host, FailDelta)
			d.pending.Delete(ctx, conn)
		}
	}
	return ctx.Emit(pkt)
}

// updateLikelihood applies the TRW step and raises an alert on threshold
// crossing. The increment is offloaded; the result comes back with the op.
func (d *Detector) updateLikelihood(ctx *nf.Ctx, host uint32, delta int64) {
	likelihood, ok := d.likelihood.IncrGetAt(ctx, uint64(host), delta)
	if !ok {
		return
	}
	if likelihood >= Threshold && !d.blocked[host] {
		d.blocked[host] = true
		ctx.Alert(nf.Alert{NF: d.Name(), Kind: "scanner-detected", Host: host})
	}
}
