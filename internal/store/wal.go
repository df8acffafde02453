package store

// walSegEntries is the number of entries in one WAL segment. Sized with
// BenchmarkClientLogWal: from 64 entries up the cost of an append is flat
// (what is left is zeroing the segment once, which is per entry whatever
// the size), and 256 entries of 288 bytes are exactly nine 8 KiB pages, so
// B/op is one WalOp with nothing lost to rounding. The slack is at most one
// segment, 72 KiB, per client.
const walSegEntries = 256

// walLog stores the client WAL (§5.4) as a list of fixed-size segments. An
// append writes into the last segment or starts a new one, so it never
// copies or re-zeroes what is already logged, which a flat slice regrown
// geometrically does for every entry it holds.
type walLog struct {
	segs [][]WalOp
}

func (l *walLog) append(w WalOp) {
	n := len(l.segs)
	if n == 0 || len(l.segs[n-1]) == walSegEntries {
		l.segs = append(l.segs, make([]WalOp, 0, walSegEntries))
		n++
	}
	l.segs[n-1] = append(l.segs[n-1], w)
}

// each calls fn on every entry in log order, with the entry's position.
func (l *walLog) each(fn func(i int, w *WalOp)) {
	i := 0
	for _, seg := range l.segs {
		for j := range seg {
			fn(i, &seg[j])
			i++
		}
	}
}

// flat returns a copy of the log as one slice.
func (l *walLog) flat() []WalOp {
	n := 0
	for _, seg := range l.segs {
		n += len(seg)
	}
	if n == 0 {
		return nil
	}
	out := make([]WalOp, 0, n)
	for _, seg := range l.segs {
		out = append(out, seg...)
	}
	return out
}

// filter removes the entries drop selects and returns how many that was.
// drop sees every entry once, in log order, with its position before any
// removal; the kept entries stay in order.
func (l *walLog) filter(drop func(i int, w *WalOp) bool) int {
	var kept walLog
	n := 0
	l.each(func(i int, w *WalOp) {
		if drop(i, w) {
			n++
			return
		}
		kept.append(*w)
	})
	*l = kept
	return n
}
