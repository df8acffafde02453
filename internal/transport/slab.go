package transport

import "unsafe"

// Slab cuts short-lived values from shared chunks: the slices outgoing
// payloads carry (a lone commit, ack, prune or delete) and, through New,
// the envelopes a receiver consumes on receipt (a store reply, a commit or
// ack message, a live call). Such an object costs a share of one chunk
// allocation instead of one of its own.
//
// A chunk holds about slabChunkBytes, so an object that outlives its
// neighbours pins at most that much. The slab never hands out or writes a
// slot twice: a cut slice is full (len == cap), so an append by whoever
// holds it cannot reach its neighbours, and a value from New stays as it
// was made for as long as anyone holds it (a duplicated or late delivery
// may still read it). Objects that die at a known point are not for a
// slab; their owner reuses them instead. One Slab per sending process: it
// is not safe for concurrent use.
type Slab[T any] struct{ free []T }

// slabChunkBytes is the size of a fresh chunk: 256 uint64s, about twenty
// store replies or seven requests.
const slabChunkBytes = 2 << 10

// Cut returns a slice holding a copy of items.
func (s *Slab[T]) Cut(items ...T) []T {
	n := len(items)
	if cap(s.free) < n {
		s.free = make([]T, 0, max(s.chunkLen(), n))
	}
	out := append(s.free, items...)
	s.free = out[n:]
	return out[:n:n]
}

// New returns a pointer to a copy of v.
func (s *Slab[T]) New(v T) *T { return &s.Cut(v)[0] }

// chunkLen is how many entries a fresh chunk holds.
func (s *Slab[T]) chunkLen() int {
	var zero T
	return max(1, slabChunkBytes/max(1, int(unsafe.Sizeof(zero))))
}
