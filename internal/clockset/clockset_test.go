package clockset

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"chc/internal/packet"
)

// The model test drives a Set and a Table with the same random operation
// stream as the maps they replace and requires equal answers throughout.

const (
	opAdd = iota
	opHas
	opPut
	opGet
	opDelete
	opKinds
)

type op struct {
	kind byte
	key  uint64
	val  uint32
}

// model is the two containers next to their reference maps.
type model struct {
	set  Set
	setM map[uint64]struct{}
	tab  Table[uint32]
	tabM map[uint64]uint32
}

func newModel() *model {
	return &model{setM: map[uint64]struct{}{}, tabM: map[uint64]uint32{}}
}

// apply runs one op on both sides and compares what it returns, the touched
// key and its neighbours, and both lengths.
func (m *model) apply(t testing.TB, o op) {
	t.Helper()
	k := o.key
	switch o.kind % opKinds {
	case opAdd:
		m.set.Add(k)
		m.setM[k] = struct{}{}
	case opHas:
		// compared below
	case opPut:
		p := m.tab.Put(k)
		if want := m.tabM[k]; *p != want {
			t.Fatalf("Put(%#x) found %d, map has %d", k, *p, want)
		}
		*p = o.val
		m.tabM[k] = o.val
	case opGet:
		// compared below
	case opDelete:
		m.tab.Delete(k)
		delete(m.tabM, k)
	}
	for _, c := range []uint64{k - 1, k, k + 1} {
		if _, want := m.setM[c]; m.set.Has(c) != want {
			t.Fatalf("after %v: Has(%#x) = %v, map says %v", o, c, !want, want)
		}
		want, ok := m.tabM[c]
		if p := m.tab.Get(c); (p != nil) != ok || (ok && *p != want) {
			t.Fatalf("after %v: Get(%#x) = %v, map has %d,%v", o, c, p, want, ok)
		}
	}
	if m.set.Len() != len(m.setM) || m.tab.Len() != len(m.tabM) {
		t.Fatalf("after %v: Len set %d table %d, maps %d %d",
			o, m.set.Len(), m.tab.Len(), len(m.setM), len(m.tabM))
	}
}

// checkAll compares the whole contents: every set member, and the table's
// Each against the map's sorted keys (ascending and complete).
func (m *model) checkAll(t testing.TB) {
	t.Helper()
	for c := range m.setM {
		if !m.set.Has(c) {
			t.Fatalf("set lost %#x", c)
		}
	}
	want := make([]uint64, 0, len(m.tabM))
	for c := range m.tabM {
		want = append(want, c)
	}
	slices.Sort(want)
	var got []uint64
	m.tab.Each(func(c uint64, v *uint32) {
		if *v != m.tabM[c] {
			t.Fatalf("Each(%#x) = %d, map has %d", c, *v, m.tabM[c])
		}
		got = append(got, c)
	})
	if !slices.Equal(got, want) {
		t.Fatalf("Each walked %d clocks %x, want the map's %d in ascending order %x",
			len(got), got, len(want), want)
	}
	if m.tab.Pages() > len(m.tabM)+1 {
		t.Fatalf("table holds %d pages for %d entries", m.tab.Pages(), len(m.tabM))
	}
}

// keyShapes are the four ways keys arrive. Each returns the n'th fresh key.
var keyShapes = []struct {
	name string
	gen  func(rng *rand.Rand, n int) uint64
}{
	// What an instance sees: counter order, disturbed by queueing.
	{"dense-window-256", func(rng *rand.Rand, n int) uint64 { return 1 + uint64(n/2) + uint64(rng.Intn(256)) }},
	// What nothing sends, and tests do: no locality at all.
	{"random-64-bit", func(rng *rand.Rand, n int) uint64 { return rng.Uint64() }},
	// A second root's clocks: dense, far from zero.
	{"root-3-clocks", func(rng *rand.Rand, n int) uint64 { return packet.MakeClock(3, uint64(1+n/2)) }},
	// Runs across the page boundaries of both types (and the set's bias).
	{"page-straddle", func(rng *rand.Rand, n int) uint64 {
		shift := uint(tablePageBits)
		if rng.Intn(2) == 0 {
			shift = setPageBits
		}
		return uint64(1+rng.Intn(4))<<shift - 8 + uint64(rng.Intn(16))
	}},
}

// genOps builds a stream of n ops whose keys follow shape; half of them
// revisit a key used before so that hits, overwrites and deletes happen.
func genOps(shape int, seed int64, n int) []op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, n)
	for i := range ops {
		k := keyShapes[shape].gen(rng, i)
		if i > 0 && rng.Intn(2) == 0 {
			k = ops[rng.Intn(i)].key
		}
		ops[i] = op{kind: byte(rng.Intn(opKinds)), key: k, val: rng.Uint32()}
	}
	return ops
}

func TestModel(t *testing.T) {
	for shape, ks := range keyShapes {
		t.Run(ks.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				m := newModel()
				for i, o := range genOps(shape, seed, 6000) {
					m.apply(t, o)
					// The whole-contents comparison is linear in the entries
					// held; apply already checked the key the op touched.
					if i%64 == 0 {
						m.checkAll(t)
					}
				}
				m.checkAll(t)
			}
		})
	}
}

const opBytes = 1 + 8 + 4

func encodeOps(ops []op) []byte {
	b := make([]byte, 0, len(ops)*opBytes)
	for _, o := range ops {
		b = append(b, o.kind)
		b = binary.LittleEndian.AppendUint64(b, o.key)
		b = binary.LittleEndian.AppendUint32(b, o.val)
	}
	return b
}

// FuzzModel is TestModel with the op stream under the fuzzer's control; its
// seed corpus (one stream per key shape) runs under plain `go test`.
func FuzzModel(f *testing.F) {
	for shape := range keyShapes {
		f.Add(encodeOps(genOps(shape, 9, 400)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newModel()
		for ; len(data) >= opBytes; data = data[opBytes:] {
			m.apply(t, op{
				kind: data[0],
				key:  binary.LittleEndian.Uint64(data[1:]),
				val:  binary.LittleEndian.Uint32(data[9:]),
			})
		}
		m.checkAll(t)
	})
}

// TestSetCollapsesFullPages: a page whose 32 Ki clocks are all present is
// one directory entry and no memory, whatever order they arrived in, and
// still answers for each of them.
func TestSetCollapsesFullPages(t *testing.T) {
	for _, order := range []string{"ascending", "shuffled"} {
		clocks := make([]uint64, setPageSize)
		for i := range clocks {
			clocks[i] = packet.MakeClock(3, uint64(i+1)) // counters start at 1
		}
		if order == "shuffled" {
			rand.New(rand.NewSource(1)).Shuffle(len(clocks), func(i, j int) {
				clocks[i], clocks[j] = clocks[j], clocks[i]
			})
		}
		var s Set
		for i, c := range clocks {
			if i == len(clocks)-1 && (s.Pages() != 1 || s.DirLen() != 1) {
				t.Fatalf("%s: one clock short of full: %d pages, %d directory entries, want 1 and 1",
					order, s.Pages(), s.DirLen())
			}
			s.Add(c)
		}
		if s.Pages() != 0 || s.DirLen() != 1 || s.Len() != setPageSize {
			t.Fatalf("%s: full page holds %d pages, %d directory entries, Len %d; want 0, 1, %d",
				order, s.Pages(), s.DirLen(), s.Len(), setPageSize)
		}
		for _, c := range clocks {
			if !s.Has(c) {
				t.Fatalf("%s: collapsed page lost %#x", order, c)
			}
		}
		if s.Has(packet.MakeClock(3, 0)) || s.Has(packet.MakeClock(3, setPageSize+1)) {
			t.Fatalf("%s: collapsed page answers for a neighbouring page's clock", order)
		}
		s.Add(clocks[0])
		if s.Len() != setPageSize || s.Pages() != 0 {
			t.Fatalf("%s: re-adding to a collapsed page changed it: Len %d, %d pages", order, s.Len(), s.Pages())
		}
	}
}

// TestTableFreesPages: a drained table keeps at most the newest page, and a
// deleted slot is zeroed (a later Put finds a zero value, and nothing the
// old value pointed to is held).
func TestTableFreesPages(t *testing.T) {
	const n = 5*tablePageSize + 7
	for _, order := range []string{"ascending", "shuffled"} {
		var tab Table[*int]
		clocks := make([]uint64, n)
		for i := range clocks {
			clocks[i] = packet.MakeClock(3, uint64(i+1))
			*tab.Put(clocks[i]) = new(int)
		}
		if tab.Len() != n || tab.Pages() != 6 {
			t.Fatalf("%s: %d entries on %d pages, want %d on 6", order, tab.Len(), tab.Pages(), n)
		}
		if order == "shuffled" {
			rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { clocks[i], clocks[j] = clocks[j], clocks[i] })
		}
		for _, c := range clocks {
			tab.Delete(c)
		}
		if tab.Len() != 0 || tab.Pages() > 1 {
			t.Fatalf("%s: drained table holds %d entries on %d pages, want 0 on at most 1", order, tab.Len(), tab.Pages())
		}
		for _, c := range clocks {
			if p := tab.Put(c); *p != nil {
				t.Fatalf("%s: Put(%#x) after Delete found the old value", order, c)
			}
			tab.Delete(c)
		}
		// The kept page is the newest one only until a newer one exists.
		*tab.Put(packet.MakeClock(3, 100*tablePageSize)) = new(int)
		if tab.Pages() != 1 {
			t.Fatalf("%s: %d pages after moving on to a new page, want 1", order, tab.Pages())
		}
	}
}

// TestTableDoesNotThrash: a lightly loaded root puts and deletes each clock
// before the next arrives. That must cost one page per 1 Ki clocks, not one
// per packet.
func TestTableDoesNotThrash(t *testing.T) {
	var tab Table[uint64]
	c := packet.MakeClock(3, 1)
	const pages = 4
	allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < pages*tablePageSize; i++ {
			*tab.Put(c) = c
			tab.Delete(c)
			c++
		}
	})
	if allocs > pages {
		t.Fatalf("put/delete over %d consecutive clocks allocated %.0f times, want at most %d (one page per %d clocks)",
			pages*tablePageSize, allocs, pages, tablePageSize)
	}
	if tab.Pages() != 1 {
		t.Fatalf("%d pages held, want 1", tab.Pages())
	}
}
