package transport

// Slab cuts the slices that outgoing payloads carry from shared chunks, so
// a message of a few entries (a lone commit, ack, prune or delete) costs
// its boxing and no allocation of its own. A cut slice is full (len ==
// cap), so an append by whoever holds it cannot reach its neighbours, and
// the slab never writes it again. One Slab per sending process: it is not
// safe for concurrent use.
type Slab[T any] struct{ free []T }

// slabChunk is how many entries a fresh chunk holds.
const slabChunk = 256

// Cut returns a slice holding a copy of items.
func (s *Slab[T]) Cut(items ...T) []T {
	n := len(items)
	if cap(s.free) < n {
		s.free = make([]T, 0, max(slabChunk, n))
	}
	out := append(s.free, items...)
	s.free = out[n:]
	return out[:n:n]
}
