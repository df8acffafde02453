package runtime

// Wire codecs for the chain-runtime payloads (transport.Wire registry,
// tags 48–79; DESIGN.md §12 holds the allocation table). Canonical form:
// fixed-width big-endian fields in declaration order, maps in sorted key
// order. A chain packet travels as *packet.Packet (tag 57): encPacket's
// fields plus the hop stamp SentNs. Two Packet fields are deliberately NOT
// serialized: IngressNs (host-local wall-clock, meaningless across
// processes) and the arena state word (decoded packets are ordinary heap
// allocations, live, so the receiver's Put recycles them like any other).
// DeleteMsg.Reply is an in-process Signal and cannot cross a socket: it
// encodes as absent and decodes nil, which is the async-delete path —
// synchronous deletes are a single-process optimization (§12).

import (
	"chc/internal/packet"
	"chc/internal/store"
	"chc/internal/transport"
)

func encPacket(e *transport.WireEnc, p *packet.Packet) {
	e.U32(p.SrcIP)
	e.U32(p.DstIP)
	e.U16(p.SrcPort)
	e.U16(p.DstPort)
	e.U8(p.Proto)
	e.U8(p.TCPFlags)
	e.U32(p.Seq)
	e.U16(p.PayloadLen)
	e.U64(p.Meta.Clock)
	e.U32(p.Meta.BitVec)
	e.U8(p.Meta.Flags)
	e.U16(p.Meta.CloneID)
	e.U8(p.Meta.Class)
}

func decPacket(d *transport.WireDec) *packet.Packet {
	p := &packet.Packet{
		SrcIP:      d.U32(),
		DstIP:      d.U32(),
		SrcPort:    d.U16(),
		DstPort:    d.U16(),
		Proto:      d.U8(),
		TCPFlags:   d.U8(),
		Seq:        d.U32(),
		PayloadLen: d.U16(),
	}
	p.Meta.Clock = d.U64()
	p.Meta.BitVec = d.U32()
	p.Meta.Flags = d.U8()
	p.Meta.CloneID = d.U16()
	p.Meta.Class = d.U8()
	return p
}

func init() {
	transport.RegisterWire[PacketMsg](48, "runtime.PacketMsg",
		func(e *transport.WireEnc, m PacketMsg) {
			encPacket(e, m.Pkt)
			e.I64(int64(m.InjectedAt))
			e.I64(int64(m.SentAt))
		},
		func(d *transport.WireDec) PacketMsg {
			return PacketMsg{
				Pkt:        decPacket(d),
				InjectedAt: transport.Time(d.I64()),
				SentAt:     transport.Time(d.I64()),
			}
		})
	transport.RegisterWire[*packet.Packet](57, "runtime.Packet",
		func(e *transport.WireEnc, p *packet.Packet) {
			encPacket(e, p)
			e.I64(p.SentNs)
		},
		func(d *transport.WireDec) *packet.Packet {
			p := decPacket(d)
			p.SentNs = d.I64()
			return p
		})
	// Tag 49 carried a single delete; DeleteMsg carries a slice under 56.
	// Tags are append-only, so 49 stays unused.
	transport.RegisterWire[FlowTableQuery](50, "runtime.FlowTableQuery",
		func(e *transport.WireEnc, m FlowTableQuery) {},
		func(d *transport.WireDec) FlowTableQuery { return FlowTableQuery{} })
	transport.RegisterWire[FlowTable](51, "runtime.FlowTable",
		func(e *transport.WireEnc, m FlowTable) {
			e.U8(uint8(m.Scope))
			e.MapU64U16(m.Overrides)
		},
		func(d *transport.WireDec) FlowTable {
			return FlowTable{Scope: store.Scope(d.U8()), Overrides: d.MapU64U16()}
		})
	transport.RegisterWire[ReplayCmd](52, "runtime.ReplayCmd",
		func(e *transport.WireEnc, m ReplayCmd) { e.U16(m.CloneID) },
		func(d *transport.WireDec) ReplayCmd { return ReplayCmd{CloneID: d.U16()} })
	transport.RegisterWire[SweepCmd](55, "runtime.SweepCmd",
		func(e *transport.WireEnc, m SweepCmd) {},
		func(d *transport.WireDec) SweepCmd { return SweepCmd{} })
	transport.RegisterWire[RootStatsQuery](53, "runtime.RootStatsQuery",
		func(e *transport.WireEnc, m RootStatsQuery) {},
		func(d *transport.WireDec) RootStatsQuery { return RootStatsQuery{} })
	transport.RegisterWire[RootStats](54, "runtime.RootStats",
		func(e *transport.WireEnc, m RootStats) {
			e.U64(m.Injected)
			e.U64(m.Deleted)
			e.U64(m.Dropped)
			e.U64(m.Replayed)
			e.U64(m.Bursts)
			e.I64(int64(m.LogSize))
			e.U64s(m.InjectedByClass)
			e.U64s(m.DeletedByClass)
		},
		func(d *transport.WireDec) RootStats {
			return RootStats{
				Injected:        d.U64(),
				Deleted:         d.U64(),
				Dropped:         d.U64(),
				Replayed:        d.U64(),
				Bursts:          d.U64(),
				LogSize:         int(d.I64()),
				InjectedByClass: d.U64s(),
				DeletedByClass:  d.U64s(),
			}
		})
	transport.RegisterWire[DeleteMsg](56, "runtime.DeleteMsg",
		func(e *transport.WireEnc, m DeleteMsg) {
			e.U32(uint32(len(m.Dels)))
			for _, del := range m.Dels {
				e.U64(del.Clock)
				e.U32(del.Vec)
			}
		},
		func(d *transport.WireDec) DeleteMsg {
			var m DeleteMsg
			if n := d.Len(12); n > 0 {
				m.Dels = make([]Delete, n)
				for i := range m.Dels {
					m.Dels[i] = Delete{Clock: d.U64(), Vec: d.U32()}
				}
			}
			return m
		})
}
