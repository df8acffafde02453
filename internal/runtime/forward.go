package runtime

import (
	"chc/internal/packet"
	"chc/internal/transport"
)

// successors is one component's wiring, set once by wireTopology for the
// root (Chain.entry) and every vertex alike: the next vertex per traffic
// class, a nil entry where that class's path ends, and the off-path taps,
// which see a copy of everything the component forwards.
type successors struct {
	next []*Vertex
	taps []*Vertex
}

// nextFor returns pkt's class successor (nil: its path ends here).
func (s *successors) nextFor(pkt *packet.Packet) *Vertex {
	if int(pkt.Meta.Class) < len(s.next) {
		return s.next[pkt.Meta.Class]
	}
	return nil
}

// fwdBuf is the forwarding buffer of the root and of every instance: the
// packets queued per successor vertex since the last flush. Runs persist
// across flushes (v stays bound, pkts truncates), so steady-state bursts
// reuse the slices.
type fwdBuf struct {
	runs []fwdRun
}

type fwdRun struct {
	v    *Vertex
	pkts []*packet.Packet
}

// forward queues an arena copy of pkt for each of s's taps, then pkt
// itself for its class successor. It reports false when pkt's class path
// ends here; pkt is then still the caller's. Its fate is decided at queue
// time: once flush hands a packet downstream the sink may release it, so
// a queued packet is never read again.
func (b *fwdBuf) forward(s *successors, a *packet.Arena, pkt *packet.Packet) bool {
	for _, tap := range s.taps {
		b.add(tap, a.Clone(pkt))
	}
	nxt := s.nextFor(pkt)
	if nxt == nil {
		return false
	}
	b.add(nxt, pkt)
	return true
}

// add queues pkt on v's run, behind what is already queued for v.
func (b *fwdBuf) add(v *Vertex, pkt *packet.Packet) {
	for idx := range b.runs {
		if b.runs[idx].v == v {
			b.runs[idx].pkts = append(b.runs[idx].pkts, pkt)
			return
		}
	}
	b.runs = append(b.runs, fwdRun{v: v, pkts: []*packet.Packet{pkt}})
}

// flush sends each vertex's run as one RouteBurst, in first-use order,
// and zeroes the packet references so the arena can recycle the buffers
// once their new owners release them.
func (b *fwdBuf) flush(from string, now transport.Time) {
	for idx := range b.runs {
		run := &b.runs[idx]
		if len(run.pkts) == 0 {
			continue
		}
		run.v.Splitter.RouteBurst(from, run.pkts, now)
		clear(run.pkts)
		run.pkts = run.pkts[:0]
	}
}
