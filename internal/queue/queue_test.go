package queue

import (
	"slices"
	"strings"
	"testing"
)

// TestFIFOKeepsArray: a queue that empties between elements keeps its
// array, so alternating push and pop allocates nothing.
func TestFIFOKeepsArray(t *testing.T) {
	var f FIFO[[4]int]
	v := [4]int{1, 2, 3, 4}
	f.Push(v)
	f.Pop()
	allocs := testing.AllocsPerRun(1000, func() {
		f.Push(v)
		if _, ok := f.Pop(); !ok {
			t.Fatal("pushed element not popped")
		}
	})
	if allocs != 0 {
		t.Fatalf("push+pop on a drained queue: %v allocs, want 0", allocs)
	}
}

// TestFIFOBoundedByPeakDepth: a long run with a steady backlog (one in,
// one out, behind a queue of depth elements) keeps the array within twice
// the peak depth, and pops in order.
func TestFIFOBoundedByPeakDepth(t *testing.T) {
	for _, depth := range []int{1, 10, 100, 1000} {
		var f FIFO[int]
		in, out := 0, 0
		push := func() {
			f.Push(in)
			in++
		}
		pop := func() {
			v, ok := f.Pop()
			if !ok || v != out {
				t.Fatalf("depth %d: popped %v ok=%v, want %d", depth, v, ok, out)
			}
			out++
		}
		for i := 0; i < depth; i++ {
			push()
		}
		peak := 0
		for i := 0; i < 100*depth+1000; i++ {
			push()
			peak = max(peak, f.Len())
			pop()
		}
		if c := cap(f.q); c > 2*peak {
			t.Fatalf("depth %d: cap %d after a steady backlog, peak depth %d", depth, c, peak)
		}
		for f.Len() > 0 {
			pop()
		}
		if len(f.q) != 0 || f.head != 0 {
			t.Fatalf("depth %d: drained queue has len %d head %d", depth, len(f.q), f.head)
		}
	}
}

// FuzzQueues drives a Deadline and a FIFO with one random sequence of
// pushes, pops, fronts and clears, against a sorted-slice model and a
// plain-slice model. Each input byte is one operation: the low two bits
// pick it, the rest is a pushed deadline (0-63, so ties are frequent).
// Deadline ties must pop in push order, and a FIFO's array must stay
// within twice its peak depth.
func FuzzQueues(f *testing.F) {
	f.Add([]byte{0, 4, 8, 1, 1, 1})
	f.Add([]byte{0, 0, 0, 0, 2, 1, 1, 3, 0, 1})
	f.Add([]byte{252, 4, 252, 4, 1, 2, 1, 1, 1})
	// 15 pushes, a pop, 66 pushes: append's size classes would round a
	// doubling of 60 up to 128.
	f.Add([]byte(strings.Repeat("0", 15) + "1" + strings.Repeat("0", 66)))
	f.Fuzz(func(t *testing.T, ops []byte) {
		type ev struct {
			at  int64
			seq int
		}
		var (
			d      Deadline[int]
			dm     []ev // sorted by (at, seq)
			q      FIFO[int]
			qm     []int
			pushes int
			peak   int
		)
		for _, op := range ops {
			switch op & 3 {
			case 0: // push
				at := int64(op >> 2)
				d.Push(at, pushes)
				i, _ := slices.BinarySearchFunc(dm, ev{at, pushes}, func(a, b ev) int {
					if a.at != b.at {
						return int(a.at - b.at)
					}
					return a.seq - b.seq
				})
				dm = slices.Insert(dm, i, ev{at, pushes})
				q.Push(pushes)
				qm = append(qm, pushes)
				pushes++
				peak = max(peak, len(qm))
			case 1: // pop
				at, v, ok := d.Pop()
				if ok != (len(dm) > 0) {
					t.Fatalf("Deadline.Pop ok=%v with %d queued", ok, len(dm))
				}
				if ok {
					if at != dm[0].at || v != dm[0].seq {
						t.Fatalf("Deadline.Pop = (%d, %d), want (%d, %d)", at, v, dm[0].at, dm[0].seq)
					}
					dm = dm[1:]
				}
				w, ok := q.Pop()
				if ok != (len(qm) > 0) {
					t.Fatalf("FIFO.Pop ok=%v with %d queued", ok, len(qm))
				}
				if ok {
					if w != qm[0] {
						t.Fatalf("FIFO.Pop = %d, want %d", w, qm[0])
					}
					qm = qm[1:]
				}
			case 2: // front
				at, v, ok := d.Front()
				if ok != (len(dm) > 0) || ok && (at != dm[0].at || v != dm[0].seq) {
					t.Fatalf("Deadline.Front = (%d, %d, %v), model %v", at, v, ok, dm)
				}
				p := q.Front()
				if (p != nil) != (len(qm) > 0) || p != nil && *p != qm[0] {
					t.Fatalf("FIFO.Front = %v, model %v", p, qm)
				}
			case 3: // clear
				d.Clear()
				dm = nil
				q.Clear()
				qm = nil
				peak = 0
			}
			if d.Len() != len(dm) || q.Len() != len(qm) {
				t.Fatalf("Len: Deadline %d (model %d), FIFO %d (model %d)", d.Len(), len(dm), q.Len(), len(qm))
			}
			if c := cap(q.q); c > 2*peak {
				t.Fatalf("FIFO cap %d with peak depth %d", c, peak)
			}
		}
	})
}
