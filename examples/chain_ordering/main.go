// Chain-wide ordering: the paper's Figure 2 scenario. A Trojan's behavioral
// signature is a SEQUENCE — SSH login, then FTP downloads, then IRC
// activity. The off-path detector sits behind per-application scrubbers;
// when a scrubber runs slow, connection packets reach the detector out of
// order. With CHC's chain-wide logical clocks the detector recovers the
// true input order and catches every signature; ordering by arrival (all a
// clock-less framework can offer) misses them.
//
//	go run ./examples/chain_ordering
package main

import (
	"fmt"
	"time"

	"chc"
	nftrojan "chc/internal/nf/trojan"
	"chc/internal/packet"
	"chc/internal/store"
	"chc/internal/trace"
)

// passNF is a stand-in scrubber that forwards packets unchanged.
type passNF struct{}

func (passNF) Name() string           { return "scrubber" }
func (passNF) Decls() []store.ObjDecl { return nil }
func (passNF) Process(ctx *chc.Ctx, pkt *chc.Packet) []*chc.Packet {
	return ctx.Emit(pkt)
}

func run(useClocks bool) (detected int, sigs int) {
	cfg := chc.DefaultChainConfig()
	cfg.DefaultServiceTime = 2 * time.Microsecond
	cfg.DefaultThreads = 1

	mkDet := func() chc.NF {
		if useClocks {
			return nftrojan.New()
		}
		return nftrojan.NewArrivalOrder()
	}
	chain := chc.NewChain(cfg,
		chc.VertexSpec{Name: "scrubber", Make: func() chc.NF { return passNF{} },
			Instances: 3, Backend: chc.BackendTraditional},
		chc.VertexSpec{Name: "trojan", Make: mkDet,
			Backend: chc.BackendCHC, Mode: chc.ModeEOCNA, OffPath: true},
	)
	// Scrubbers are partitioned by application (Figure 2: one handles SSH,
	// one FTP, one IRC).
	chain.Vertices[0].Splitter.IdxFn = func(p *chc.Packet) int {
		switch packet.AppOf(p) {
		case packet.AppSSH:
			return 0
		case packet.AppFTP:
			return 1
		case packet.AppIRC:
			return 2
		default:
			return int(p.Key().Canonical().Hash() % 3)
		}
	}
	chain.Start()
	// The SSH scrubber runs slow: 50-100µs extra per packet.
	chain.Vertices[0].Instances[0].ExtraDelay = func(intn func(int64) int64) time.Duration {
		return time.Duration(50+intn(51)) * time.Microsecond
	}

	tr := chc.GenerateTrace(chc.TraceConfig{
		Seed: 21, Flows: 200, PktsPerFlowMean: 8, PayloadMedian: 700,
		Hosts: 16, Servers: 8,
	})
	sigList := trace.InjectTrojan(tr, 11, 99)
	tr.Pace(500_000_000)
	chain.RunTrace(tr, 500*time.Millisecond)

	det := chain.Vertices[1].Instances[0].NFImpl().(*nftrojan.Detector)
	for _, s := range sigList {
		if det.Detected(s.Host) {
			detected++
		}
	}
	return detected, len(sigList)
}

func main() {
	got, sigs := run(true)
	fmt.Printf("CHC logical clocks:   detected %d/%d Trojan signatures\n", got, sigs)
	got, sigs = run(false)
	fmt.Printf("arrival order only:   detected %d/%d Trojan signatures\n", got, sigs)
	fmt.Println("\nchain-wide clocks let the detector reason about the true input")
	fmt.Println("order no matter how intervening NFs delay or reorder traffic (R4)")
}
