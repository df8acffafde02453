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
	var cuts [][]uint64
	for i := uint64(0); i < 3*slabChunk; i++ {
		c := s.Cut(i, i+1)
		if len(c) != 2 || cap(c) != 2 {
			t.Fatalf("cut %d: len %d cap %d, want 2 and 2", i, len(c), cap(c))
		}
		cuts = append(cuts, c)
		_ = append(c, 99) // must reallocate, not write into the chunk
	}
	big := make([]uint64, 2*slabChunk)
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
		t.Fatalf("a one-entry cut allocates %.3f times, want a chunk per %d", got, slabChunk)
	}
}
