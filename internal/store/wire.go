package store

// Wire codecs for every store-protocol payload (transport.Wire registry,
// tags 16–47; see DESIGN.md §12 for the allocation table). Registering
// here — in the defining package, at init — means any process that links
// the store protocol can speak it across a socket; internal/netnet only
// needs the registry. Encodings are canonical: fixed-width big-endian
// fields in declaration order, maps in sorted key order, so
// encode→decode→re-encode is byte-stable (pinned by wire_test.go).
// Checkpoints (checkpoint.go) encode their keys and values with the same
// encKey/encValue, so the store has one binary form of its state.

import "chc/internal/transport"

func encKey(e *transport.WireEnc, k Key) {
	e.U16(k.Vertex)
	e.U16(k.Obj)
	e.U64(k.Sub)
}

func decKey(d *transport.WireDec) Key {
	return Key{Vertex: d.U16(), Obj: d.U16(), Sub: d.U64()}
}

func encValue(e *transport.WireEnc, v Value) {
	e.U8(uint8(v.Kind))
	e.I64(v.Int)
	e.F64(v.Float)
	e.Blob(v.Bytes)
	e.I64s(v.List)
	e.MapStrI64(v.Map)
}

func decValue(d *transport.WireDec) Value {
	return Value{
		Kind:  Kind(d.U8()),
		Int:   d.I64(),
		Float: d.F64(),
		Bytes: d.Blob(),
		List:  d.I64s(),
		Map:   d.MapStrI64(),
	}
}

func encRequest(e *transport.WireEnc, r *Request) {
	e.U8(uint8(r.Op))
	encKey(e, r.Key)
	e.Str(r.Field)
	encValue(e, r.Arg)
	encValue(e, r.Arg2)
	e.Str(r.Custom)
	e.U8(uint8(r.NDKind))
	e.U64(r.Clock)
	e.U16(r.Instance)
	e.Bool(r.WantTS)
	e.Bool(r.NonBlock)
	e.U64(r.WalPos)
	e.U32(uint32(len(r.Batch)))
	for _, b := range r.Batch {
		e.U64(b.Clock)
		e.I64(b.Delta)
	}
	e.Bool(r.RegisterCB)
	e.Bool(r.WatchOwner)
}

func decRequest(d *transport.WireDec) *Request {
	r := &Request{
		Op:       Op(d.U8()),
		Key:      decKey(d),
		Field:    d.Str(),
		Arg:      decValue(d),
		Arg2:     decValue(d),
		Custom:   d.Str(),
		NDKind:   NonDetKind(d.U8()),
		Clock:    d.U64(),
		Instance: d.U16(),
		WantTS:   d.Bool(),
		NonBlock: d.Bool(),
		WalPos:   d.U64(),
	}
	if n := d.Len(16); n > 0 {
		r.Batch = make([]BatchEntry, n)
		for i := range r.Batch {
			r.Batch[i] = BatchEntry{Clock: d.U64(), Delta: d.I64()}
		}
	}
	r.RegisterCB = d.Bool()
	r.WatchOwner = d.Bool()
	return r
}

func encReply(e *transport.WireEnc, r Reply) {
	encValue(e, r.Val)
	e.Bool(r.OK)
	e.Bool(r.Emulated)
	e.Bool(r.Conflict)
	e.MapU16U64(r.TS)
}

func decReply(d *transport.WireDec) Reply {
	return Reply{
		Val:      decValue(d),
		OK:       d.Bool(),
		Emulated: d.Bool(),
		Conflict: d.Bool(),
		TS:       d.MapU16U64(),
	}
}

func encAsyncOp(e *transport.WireEnc, op AsyncOp) {
	encRequest(e, op.Req)
	e.U64(op.Seq)
	e.Str(op.From)
}

func decAsyncOp(d *transport.WireDec) AsyncOp {
	return AsyncOp{Req: decRequest(d), Seq: d.U64(), From: d.Str()}
}

func init() {
	transport.RegisterWire[*Request](16, "store.Request", encRequest, decRequest)
	transport.RegisterWire[Reply](17, "store.Reply", encReply, decReply)
	// Tag 18 carried a stand-alone AsyncOp; an op now always travels in an
	// AsyncBatchMsg. Tags are append-only, so 18 stays unused.
	transport.RegisterWire[AsyncBatchMsg](19, "store.AsyncBatchMsg",
		func(e *transport.WireEnc, m AsyncBatchMsg) {
			e.U32(uint32(len(m.Ops)))
			for _, op := range m.Ops {
				encAsyncOp(e, op)
			}
		},
		func(d *transport.WireDec) AsyncBatchMsg {
			var m AsyncBatchMsg
			if n := d.Len(8); n > 0 {
				m.Ops = make([]AsyncOp, n)
				for i := range m.Ops {
					m.Ops[i] = decAsyncOp(d)
				}
			}
			return m
		})
	// Tags 20, 24 and 25 carried one ack, commit and prune each; the three
	// signals now carry a slice under 31–33. Tags are append-only, so the
	// old ones stay unused.
	transport.RegisterWire[CallbackMsg](21, "store.CallbackMsg",
		func(e *transport.WireEnc, m CallbackMsg) { encKey(e, m.Key); encValue(e, m.Val) },
		func(d *transport.WireDec) CallbackMsg { return CallbackMsg{Key: decKey(d), Val: decValue(d)} })
	transport.RegisterWire[OwnerMsg](22, "store.OwnerMsg",
		func(e *transport.WireEnc, m OwnerMsg) { encKey(e, m.Key); e.U16(m.Owner) },
		func(d *transport.WireDec) OwnerMsg { return OwnerMsg{Key: decKey(d), Owner: d.U16()} })
	transport.RegisterWire[OwnerSeedMsg](23, "store.OwnerSeedMsg",
		func(e *transport.WireEnc, m OwnerSeedMsg) { encKey(e, m.Key); e.U16(m.Instance) },
		func(d *transport.WireDec) OwnerSeedMsg {
			return OwnerSeedMsg{Key: decKey(d), Instance: d.U16()}
		})
	transport.RegisterWire[TruncateMsg](26, "store.TruncateMsg",
		func(e *transport.WireEnc, m TruncateMsg) {
			e.MapU16U64(m.TS)
			e.MapU16U64(m.Pos)
			e.Str(m.Shard)
		},
		func(d *transport.WireDec) TruncateMsg {
			return TruncateMsg{TS: d.MapU16U64(), Pos: d.MapU16U64(), Shard: d.Str()}
		})
	transport.RegisterWire[LockGetReq](27, "store.LockGetReq",
		func(e *transport.WireEnc, m LockGetReq) { encKey(e, m.Key); e.U16(m.Instance) },
		func(d *transport.WireDec) LockGetReq {
			return LockGetReq{Key: decKey(d), Instance: d.U16()}
		})
	transport.RegisterWire[SetUnlockReq](28, "store.SetUnlockReq",
		func(e *transport.WireEnc, m SetUnlockReq) {
			encKey(e, m.Key)
			encValue(e, m.Val)
			e.U16(m.Instance)
			e.U64(m.Clock)
		},
		func(d *transport.WireDec) SetUnlockReq {
			return SetUnlockReq{Key: decKey(d), Val: decValue(d), Instance: d.U16(), Clock: d.U64()}
		})
	transport.RegisterWire[PartitionQuery](29, "store.PartitionQuery",
		func(e *transport.WireEnc, m PartitionQuery) {},
		func(d *transport.WireDec) PartitionQuery { return PartitionQuery{} })
	transport.RegisterWire[*PartitionMap](30, "store.PartitionMap",
		func(e *transport.WireEnc, m *PartitionMap) {
			e.U64(m.Version)
			e.U32(uint32(len(m.Shards)))
			for _, s := range m.Shards {
				e.Str(s)
			}
		},
		func(d *transport.WireDec) *PartitionMap {
			version := d.U64()
			shards := make([]string, d.Len(4))
			for i := range shards {
				shards[i] = d.Str()
			}
			m := NewPartitionMap(shards)
			m.Version = version
			return m
		})
	transport.RegisterWire[AckMsg](31, "store.AckMsg",
		func(e *transport.WireEnc, m AckMsg) { e.U64s(m.Seqs) },
		func(d *transport.WireDec) AckMsg { return AckMsg{Seqs: d.U64s()} })
	transport.RegisterWire[CommitMsg](32, "store.CommitMsg",
		func(e *transport.WireEnc, m CommitMsg) {
			e.U32(uint32(len(m.Commits)))
			for _, c := range m.Commits {
				e.U64(c.Clock)
				e.U16(c.Instance)
				encKey(e, c.Key)
			}
		},
		func(d *transport.WireDec) CommitMsg {
			var m CommitMsg
			if n := d.Len(22); n > 0 {
				m.Commits = make([]Commit, n)
				for i := range m.Commits {
					m.Commits[i] = Commit{Clock: d.U64(), Instance: d.U16(), Key: decKey(d)}
				}
			}
			return m
		})
	transport.RegisterWire[PruneMsg](33, "store.PruneMsg",
		func(e *transport.WireEnc, m PruneMsg) { e.U64s(m.Clocks) },
		func(d *transport.WireDec) PruneMsg { return PruneMsg{Clocks: d.U64s()} })
}
