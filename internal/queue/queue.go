// Package queue holds the two queue shapes of every substrate: FIFO (the
// mailboxes, the store client's retransmit queue) and Deadline (the DES's
// events, livenet's deliveries and timers). Neither locks.
package queue

// FIFO is an unbounded first-in first-out queue; the zero value is empty.
// The queue is q[head:], reset to q[:0] when it empties, so a queue that
// runs dry between elements keeps its array. A push that finds the array
// full slides the live part down over the popped prefix, at most eight
// copies per element freed, or, if the prefix is under an eighth of the
// live part, moves it to an array of twice its length (plus one): the
// array stays within twice the peak depth.
type FIFO[T any] struct {
	q    []T
	head int
}

// Len reports the queued elements.
func (f *FIFO[T]) Len() int { return len(f.q) - f.head }

// Push appends v.
func (f *FIFO[T]) Push(v T) {
	if len(f.q) == cap(f.q) {
		live := f.q[f.head:]
		if f.head > 0 && f.head*8 >= len(live) {
			n := copy(f.q, live)
			clear(f.q[n:])
			f.q = f.q[:n]
		} else {
			f.q = append(make([]T, 0, 2*len(live)+1), live...)
		}
		f.head = 0
	}
	f.q = append(f.q, v)
}

// Pop removes and returns the oldest element; ok is false if none is left.
func (f *FIFO[T]) Pop() (v T, ok bool) {
	if f.head == len(f.q) {
		return v, false
	}
	v, f.q[f.head] = f.q[f.head], v
	if f.head++; f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return v, true
}

// Front returns the oldest element in place (valid until the next Push,
// Pop or Clear), or nil.
func (f *FIFO[T]) Front() *T {
	if f.head == len(f.q) {
		return nil
	}
	return &f.q[f.head]
}

// Clear empties the queue and lets its array go.
func (f *FIFO[T]) Clear() { f.q, f.head = nil, 0 }

// Deadline is a queue ordered by (at, seq), seq counting pushes: the
// earliest deadline first, ties in push order. The order is total, so the
// pops follow from the pushes alone. The zero value is empty.
type Deadline[T any] struct {
	h   []item[T] // a binary min-heap
	seq uint64
}

type item[T any] struct {
	at  int64
	seq uint64
	v   T
}

func (a *item[T]) before(b *item[T]) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// Len reports the queued elements.
func (d *Deadline[T]) Len() int { return len(d.h) }

// Push queues v for deadline at.
func (d *Deadline[T]) Push(at int64, v T) {
	d.h = append(d.h, item[T]{at: at, seq: d.seq, v: v})
	d.seq++
	for i := len(d.h) - 1; i > 0; {
		p := (i - 1) / 2
		if !d.h[i].before(&d.h[p]) {
			break
		}
		d.h[i], d.h[p] = d.h[p], d.h[i]
		i = p
	}
}

// Front returns the first element and its deadline; ok is false if none
// is queued.
func (d *Deadline[T]) Front() (at int64, v T, ok bool) {
	if len(d.h) == 0 {
		return 0, v, false
	}
	return d.h[0].at, d.h[0].v, true
}

// Pop removes and returns what Front returns.
func (d *Deadline[T]) Pop() (at int64, v T, ok bool) {
	if len(d.h) == 0 {
		return 0, v, false
	}
	top, last := d.h[0], len(d.h)-1
	d.h[0], d.h[last] = d.h[last], item[T]{}
	h := d.h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	d.h = h
	return top.at, top.v, true
}

// Clear empties the queue and lets its array go.
func (d *Deadline[T]) Clear() { d.h = nil }
