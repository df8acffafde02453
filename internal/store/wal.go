package store

import (
	"encoding/binary"

	"chc/internal/transport"
)

// walSegBytes is the size of one WAL segment. An entry never spans two
// segments, so what a segment loses at its end is less than one entry;
// an entry larger than a segment gets a segment of its own size. The
// slack is at most one segment, 32 KiB, per client.
const walSegBytes = 32 << 10

// walMinEntry is the size of the smallest entry: a Request with no
// strings, lists, maps or batch. A segment with less room left is full.
const walMinEntry = 110

// walKeyOff is where an entry's Key starts: after the entry's length and
// the Request's op byte (encRequest).
const walKeyOff = 4 + 1

// walLog stores the client WAL (§5.4) as a list of fixed-size byte
// segments. Each entry is [u32 len][encRequest], the store's wire form
// of the logged Request, so a segment holds no pointers for the GC to
// scan. An append encodes into the last segment or starts a new one, so
// it never copies what is already logged; truncation reads only each
// entry's Key; only WAL() decodes.
type walLog struct {
	segs [][]byte
	n    int // entries held
}

func (l *walLog) append(r *Request) {
	n := len(l.segs)
	if n == 0 || cap(l.segs[n-1])-len(l.segs[n-1]) < walMinEntry {
		l.segs = append(l.segs, make([]byte, 0, walSegBytes))
		n++
	}
	seg := l.segs[n-1]
	free := seg[len(seg):]
	e := transport.NewWireEnc(free)
	e.U32(0)
	encRequest(&e, r)
	ent := e.Bytes()
	binary.BigEndian.PutUint32(ent, uint32(len(ent)-4))
	if len(ent) <= cap(free) {
		l.segs[n-1] = seg[:len(seg)+len(ent)]
	} else {
		// The entry outgrew the room left: it starts the next segment.
		l.segs = append(l.segs, append(make([]byte, 0, max(walSegBytes, len(ent))), ent...))
	}
	l.n++
}

// flat decodes the log into one slice.
func (l *walLog) flat() []WalOp {
	if l.n == 0 {
		return nil
	}
	out := make([]WalOp, 0, l.n)
	for _, seg := range l.segs {
		for off := 0; off < len(seg); {
			size := 4 + int(binary.BigEndian.Uint32(seg[off:]))
			r := decRequest(transport.NewWireDec(seg[off+4 : off+size]))
			out = append(out, WalOp{Clock: r.Clock, Req: *r})
			off += size
		}
	}
	return out
}

// filter removes the entries whose Key drop selects and returns how many
// that was. drop sees every entry's Key once, in log order. The kept
// entries move up in place, in order, without being decoded; segments
// left empty are released.
func (l *walLog) filter(drop func(k Key) bool) int {
	dropped := 0
	ws, w := 0, 0 // where the next kept entry goes: segment, offset
	for _, seg := range l.segs {
		for off := 0; off < len(seg); {
			size := 4 + int(binary.BigEndian.Uint32(seg[off:]))
			ent := seg[off : off+size]
			off += size
			if drop(decKey(transport.NewWireDec(ent[walKeyOff:]))) {
				dropped++
				continue
			}
			// The write point never passes the entry: in the entry's own
			// segment it is at or before the entry, which fits there.
			for cap(l.segs[ws])-w < size {
				l.segs[ws] = l.segs[ws][:w]
				ws, w = ws+1, 0
			}
			w += copy(l.segs[ws][w:cap(l.segs[ws])], ent)
		}
	}
	if len(l.segs) > 0 {
		l.segs[ws] = l.segs[ws][:w]
	}
	kept := l.segs[:0]
	for _, seg := range l.segs[:min(ws+1, len(l.segs))] {
		if len(seg) > 0 {
			kept = append(kept, seg)
		}
	}
	clear(l.segs[len(kept):])
	l.segs = kept
	l.n -= dropped
	return dropped
}
