// Package clockset holds per-clock bookkeeping indexed by the clock instead
// of hashed. Logical clocks come off a counter (the root's packet counter, a
// store client's op sequence), so they are dense by construction: a set of
// them is a bitmap and a clock-keyed log is an array, each cut into pages
// found through a small directory keyed by clock >> pageBits. The directory,
// not a slice sized by the largest clock, is what keeps sparse keys cheap:
// clocks carry the root ID in their top 8 bits (packet.MakeClock).
//
// Set and Table answer exactly as the map[uint64]struct{} / map[uint64]T
// they replace (membership, value, Len); Table.Each additionally walks in
// ascending clock order, which for counter-issued clocks is insertion order.
// Neither type locks: every user already serializes access (Instance.mu,
// Engine.logMu, or a single owning process). The zero value of both is
// empty and ready to use.
//
// Page sizes are constants chosen by the layer benchmarks (bench_test.go),
// not options.
package clockset

import (
	"math/bits"
	"slices"
)

const (
	// A Set page covers 32 Ki clocks in 4 KiB.
	setPageBits  = 15
	setPageSize  = 1 << setPageBits
	setPageWords = setPageSize / 64

	// A Table page covers 1 Ki clocks, values inline.
	tablePageBits  = 10
	tablePageSize  = 1 << tablePageBits
	tablePageWords = tablePageSize / 64
)

// directory finds pages by page number (clock >> pageBits). In front of the
// map sits a one-entry cache of the last page touched: clocks arrive nearly
// in order, so most lookups never reach the map.
type directory[P any] struct {
	pages  map[uint64]*P
	lastNo uint64
	last   *P
}

func (d *directory[P]) get(no uint64) *P {
	if d.last != nil && d.lastNo == no {
		return d.last
	}
	p := d.pages[no]
	if p != nil {
		d.lastNo, d.last = no, p
	}
	return p
}

func (d *directory[P]) set(no uint64, p *P) {
	if d.pages == nil {
		d.pages = make(map[uint64]*P)
	}
	d.pages[no] = p
	d.lastNo, d.last = no, p
}

func (d *directory[P]) remove(no uint64) {
	delete(d.pages, no)
	if d.lastNo == no {
		d.last = nil
	}
}

type setPage struct {
	n    int // bits set
	bits [setPageWords]uint64
}

// fullPage stands in the directory for every page whose clocks are all
// present. It is never written.
var fullPage = new(setPage)

// Set is a set of clocks: a paged bitset. A page whose 32 Ki clocks are all
// present collapses to one shared marker, so a densely filled set costs one
// directory entry per 32 Ki clocks and holds real pages only where it is
// still filling.
type Set struct {
	dir   directory[setPage]
	n     int
	pages int // real (non-collapsed) pages held
}

// setIndex maps a clock to its bit position. Counters start at 1 (the root
// and the store client both increment before use), so clock 0 of each
// root's range never occurs; biasing by one puts clocks 1..32 Ki on one
// page, which can then fill and collapse like every later one. The
// subtraction wraps for clock 0, which keeps the mapping a bijection.
func setIndex(c uint64) (no uint64, word int, mask uint64) {
	i := c - 1
	return i >> setPageBits, int(i&(setPageSize-1)) >> 6, 1 << (i & 63)
}

// Has reports whether c is in the set.
func (s *Set) Has(c uint64) bool {
	no, w, m := setIndex(c)
	p := s.dir.get(no)
	if p == nil {
		return false
	}
	return p == fullPage || p.bits[w]&m != 0
}

// Add inserts c (a no-op when already present).
func (s *Set) Add(c uint64) {
	no, w, m := setIndex(c)
	p := s.dir.get(no)
	if p == fullPage {
		return
	}
	if p == nil {
		p = new(setPage)
		s.dir.set(no, p)
		s.pages++
	}
	if p.bits[w]&m != 0 {
		return
	}
	p.bits[w] |= m
	p.n++
	s.n++
	if p.n == setPageSize {
		s.dir.set(no, fullPage)
		s.pages--
	}
}

// Len reports the number of clocks in the set.
func (s *Set) Len() int { return s.n }

// Pages reports the real pages held (4 KiB each); collapsed pages are not
// counted.
func (s *Set) Pages() int { return s.pages }

// DirLen reports the directory entries, real and collapsed pages together.
func (s *Set) DirLen() int { return len(s.dir.pages) }

type tablePage[T any] struct {
	n    int // slots in use
	used [tablePageWords]uint64
	vals [tablePageSize]T
}

// Table maps clocks to values of type T held inline in pages of 1 Ki slots,
// each with a presence bitmap. Get and Put return a pointer into the page:
// it stays valid until that clock is deleted.
type Table[T any] struct {
	dir directory[tablePage[T]]
	// newest is the highest page number ever put to: where the next clocks
	// will land. It is the one page Delete leaves in place when empty.
	newest uint64
	n      int
}

// Get returns the value stored for c, or nil when there is none.
func (t *Table[T]) Get(c uint64) *T {
	p := t.dir.get(c >> tablePageBits)
	slot := c & (tablePageSize - 1)
	if p == nil || p.used[slot>>6]&(1<<(slot&63)) == 0 {
		return nil
	}
	return &p.vals[slot]
}

// Put returns the value stored for c, first creating a zero one when there
// is none.
func (t *Table[T]) Put(c uint64) *T {
	no := c >> tablePageBits
	p := t.dir.get(no)
	if p == nil {
		if no > t.newest {
			// The page kept for the clocks to come has been passed: it goes
			// now if it emptied meanwhile.
			if old := t.dir.get(t.newest); old != nil && old.n == 0 {
				t.dir.remove(t.newest)
			}
			t.newest = no
		}
		p = new(tablePage[T])
		t.dir.set(no, p)
	}
	slot := c & (tablePageSize - 1)
	if m := uint64(1) << (slot & 63); p.used[slot>>6]&m == 0 {
		p.used[slot>>6] |= m
		p.n++
		t.n++
	}
	return &p.vals[slot]
}

// Delete removes c. The slot is zeroed, so nothing T points to stays
// reachable through the table, and a page goes with its last entry — except
// the newest page: under light load every packet is put and deleted before
// the next arrives, and freeing then would allocate a page per packet.
func (t *Table[T]) Delete(c uint64) {
	no := c >> tablePageBits
	p := t.dir.get(no)
	slot := c & (tablePageSize - 1)
	m := uint64(1) << (slot & 63)
	if p == nil || p.used[slot>>6]&m == 0 {
		return
	}
	var zero T
	p.vals[slot] = zero
	p.used[slot>>6] &^= m
	p.n--
	t.n--
	if p.n == 0 && no != t.newest {
		t.dir.remove(no)
	}
}

// Len reports the number of clocks stored.
func (t *Table[T]) Len() int { return t.n }

// Pages reports the pages held (1 Ki slots of T each).
func (t *Table[T]) Pages() int { return len(t.dir.pages) }

// Each calls fn for every entry in ascending clock order. fn may change the
// value in place but must not Put to or Delete from the table.
func (t *Table[T]) Each(fn func(c uint64, v *T)) {
	nos := make([]uint64, 0, len(t.dir.pages))
	for no, p := range t.dir.pages {
		if p.n > 0 {
			nos = append(nos, no)
		}
	}
	slices.Sort(nos)
	for _, no := range nos {
		p := t.dir.pages[no]
		for w, word := range p.used {
			for ; word != 0; word &= word - 1 {
				slot := w<<6 | bits.TrailingZeros64(word)
				fn(no<<tablePageBits|uint64(slot), &p.vals[slot])
			}
		}
	}
}
