package store

import (
	"encoding/binary"

	"chc/internal/transport"
)

// walSegBytes is the size of one WAL segment. An entry never spans two
// segments, so what a segment loses at its end is less than one entry;
// an entry larger than a segment gets a segment of its own size. The
// slack is at most one segment, 32 KiB, per shard log.
const walSegBytes = 32 << 10

// walMinEntry is the size of the smallest entry: a Request with no
// strings, lists, maps or batch. A segment with less room left is full.
const walMinEntry = 110

// walLog stores one store shard's part of the client WAL (§5.4) as a list
// of fixed-size byte segments. Each entry is [u32 len][encRequest], the
// store's wire form of the logged Request, so a segment holds no pointers
// for the GC to scan. An append encodes into the last segment or starts a
// new one, so it never copies what is already logged. A checkpoint covers
// a prefix of the log, so truncation drops one: whole segments are
// released and the first kept one is entered at an offset, reading only
// entry lengths. Only flat decodes.
type walLog struct {
	segs  [][]byte // no segment is empty; segs[0] is read from head
	head  int      // offset of the first held entry in segs[0]
	n     int      // entries held
	total uint64   // entries ever logged: the shard's WAL position
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
	switch {
	case len(ent) <= cap(free):
		l.segs[n-1] = seg[:len(seg)+len(ent)]
	case len(seg) == 0:
		// Larger than a segment: it gets one of its own size in place of
		// the empty one.
		l.segs[n-1] = ent
	default:
		// The entry outgrew the room left: it starts the next segment.
		l.segs = append(l.segs, append(make([]byte, 0, max(walSegBytes, len(ent))), ent...))
	}
	l.n++
	l.total++
}

// dropped is how many entries truncation has removed.
func (l *walLog) dropped() uint64 { return l.total - uint64(l.n) }

// dropPrefix removes the first k held entries, or all of them when fewer
// are held. A segment is released once its last entry goes.
func (l *walLog) dropPrefix(k int) {
	for ; k > 0 && l.n > 0; k-- {
		l.head += 4 + int(binary.BigEndian.Uint32(l.segs[0][l.head:]))
		l.n--
		if l.head == len(l.segs[0]) {
			l.segs[0] = nil
			l.segs, l.head = l.segs[1:], 0
		}
	}
}

// flat decodes the held entries into one slice.
func (l *walLog) flat() []WalOp {
	if l.n == 0 {
		return nil
	}
	out := make([]WalOp, 0, l.n)
	off := l.head
	for _, seg := range l.segs {
		for off < len(seg) {
			size := 4 + int(binary.BigEndian.Uint32(seg[off:]))
			r := decRequest(transport.NewWireDec(seg[off+4 : off+size]))
			out = append(out, WalOp{Clock: r.Clock, Req: *r})
			off += size
		}
		off = 0
	}
	return out
}
