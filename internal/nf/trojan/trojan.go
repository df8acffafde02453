// Package trojan implements the paper's off-path Trojan detector (§2.1, §6;
// following De Carli et al. [12]). It identifies a Trojan by this sequence
// from one host: (1) an SSH connection opens; (2) files download over FTP;
// (3) IRC activity follows. Order matters: the same three connections in a
// different order are benign.
//
// The detector therefore depends on knowing the TRUE arrival order of
// connections at the chain input. Under CHC it orders events by the packets'
// chain-wide logical clocks (R4); configured with UseClocks=false it falls
// back to local arrival order — which is what frameworks without chain-wide
// ordering guarantees effectively use, and what the R4 experiment shows
// missing detections.
package trojan

import (
	"chc/internal/nf"
	"chc/internal/packet"
	"chc/internal/store"
)

// State object IDs.
const (
	// ObjArrivals is the per-host map app -> ordering value of the latest
	// connection start (cross-flow, write/read often; Table 4).
	ObjArrivals uint16 = 1
)

// Map fields.
const (
	fieldSSH = "ssh"
	fieldFTP = "ftp"
	fieldIRC = "irc"
)

// Detector is the off-path Trojan detector.
type Detector struct {
	// UseClocks selects chain-wide logical clocks (CHC, R4) versus local
	// arrival order (the no-chain-ordering baseline).
	UseClocks bool
	detected  map[uint32]bool

	decls    nf.DeclSet
	arrivals nf.Map
}

// New returns a CHC-configured detector (logical clocks).
func New() *Detector { return newDetector(true) }

// NewArrivalOrder returns the baseline detector using arrival order.
func NewArrivalOrder() *Detector { return newDetector(false) }

func newDetector(useClocks bool) *Detector {
	d := &Detector{UseClocks: useClocks, detected: make(map[uint32]bool)}
	d.arrivals = d.decls.Map(ObjArrivals, "app-arrivals", store.ScopeSrcIP, store.WriteReadOften)
	return d
}

// Name implements nf.NF.
func (d *Detector) Name() string { return "trojan" }

// Decls implements nf.NF (declared once in New).
func (d *Detector) Decls() []store.ObjDecl { return d.decls.List() }

// Detected reports whether host was flagged.
func (d *Detector) Detected(host uint32) bool { return d.detected[host] }

// Process implements nf.NF. Off-path: consumes its copy of traffic and
// produces no output packets.
func (d *Detector) Process(ctx *nf.Ctx, pkt *packet.Packet) []*packet.Packet {
	if !pkt.IsSYN() {
		return ctx.Emit()
	}
	var field string
	switch packet.AppOf(pkt) {
	case packet.AppSSH:
		field = fieldSSH
	case packet.AppFTP:
		field = fieldFTP
	case packet.AppIRC:
		field = fieldIRC
	default:
		return ctx.Emit()
	}
	host := uint64(pkt.SrcIP)
	order := ctx.Clock
	if !d.UseClocks {
		order = ctx.Seq
	}
	// Record this connection start, then evaluate the signature on the
	// host's full arrival table.
	d.arrivals.SetSync(ctx, host, field, int64(order))
	m, ok := d.arrivals.Snapshot(ctx, host)
	if !ok || m == nil {
		return ctx.Emit()
	}
	ssh, okS := m[fieldSSH]
	ftp, okF := m[fieldFTP]
	irc, okI := m[fieldIRC]
	if okS && okF && okI && ssh < ftp && ftp < irc {
		if !d.detected[uint32(host)] {
			d.detected[uint32(host)] = true
			ctx.Alert(nf.Alert{NF: d.Name(), Kind: "trojan-detected", Host: uint32(host)})
		}
	}
	return ctx.Emit()
}
