package transport

import (
	"slices"
	"testing"
)

// TestSlabCutsDisjointFullSlices: every cut holds what it was given, is
// full, and keeps its contents through later cuts and through appends to
// earlier ones; one-entry cuts share a chunk, and a cut larger than a chunk
// gets its own.
func TestSlabCutsDisjointFullSlices(t *testing.T) {
	var s Slab[uint64]
	chunk := s.chunkLen()
	var cuts [][]uint64
	for i := uint64(0); i < uint64(3*chunk); i++ {
		c := s.Cut(i, i+1)
		if len(c) != 2 || cap(c) != 2 {
			t.Fatalf("cut %d: len %d cap %d, want 2 and 2", i, len(c), cap(c))
		}
		cuts = append(cuts, c)
		_ = append(c, 99) // must reallocate, not write into the chunk
	}
	big := make([]uint64, 2*chunk)
	for i := range big {
		big[i] = uint64(i)
	}
	if c := s.Cut(big...); !slices.Equal(c, big) {
		t.Fatal("a cut larger than a chunk lost entries")
	}
	for i, c := range cuts {
		if c[0] != uint64(i) || c[1] != uint64(i+1) {
			t.Fatalf("cut %d now holds %v", i, c)
		}
	}
	if got := testing.AllocsPerRun(1000, func() { s.Cut(7) }); got > 0.01 {
		t.Fatalf("a one-entry cut allocates %.3f times, want a chunk per %d", got, chunk)
	}
}

// TestSlabNewNeverReusesASlot: values from New keep what they were made
// with through later New and Cut calls, are distinct, and share chunks of
// about slabChunkBytes.
func TestSlabNewNeverReusesASlot(t *testing.T) {
	type env struct {
		a, b uint64
		s    string
	}
	var s Slab[env]
	var got []*env
	for i := uint64(0); i < 200; i++ {
		got = append(got, s.New(env{a: i, b: i * 2, s: "x"}))
		s.Cut(env{a: 1 << 40})
	}
	for i, p := range got {
		if p.a != uint64(i) || p.b != uint64(2*i) || p.s != "x" {
			t.Fatalf("value %d now holds %+v", i, *p)
		}
		if i > 0 && p == got[i-1] {
			t.Fatalf("value %d shares a slot with %d", i, i-1)
		}
	}
	if n := s.chunkLen(); n != slabChunkBytes/32 {
		t.Fatalf("a chunk of 32-byte values holds %d, want %d", n, slabChunkBytes/32)
	}
	if got := testing.AllocsPerRun(1000, func() { s.New(env{a: 3}) }); got > 0.1 {
		t.Fatalf("New allocates %.3f times per value, want a chunk per %d", got, s.chunkLen())
	}
}
