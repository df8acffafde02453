package clockset

import (
	"testing"

	"chc/internal/packet"
)

// The layer benchmarks put each type next to the map it replaced, on the
// access pattern of its hottest user. They are what the page-size constants
// were set by. `make bench-smoke` runs them once; for numbers use a fixed
// count that fills the structures as a run does:
//
//	go test -run '^$' -bench 'Seen|RootLog' -benchtime 2097152x -benchmem -cpu 2 ./internal/clockset

// BenchmarkSeen is queue-level duplicate suppression (Instance.seen,
// Sink.seen): each ascending clock is looked up, then added.
func BenchmarkSeen(b *testing.B) {
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		m := make(map[uint64]struct{})
		for i := 0; i < b.N; i++ {
			c := packet.MakeClock(0, uint64(i+1))
			if _, dup := m[c]; !dup {
				m[c] = struct{}{}
			}
		}
	})
	b.Run("set", func(b *testing.B) {
		b.ReportAllocs()
		var s Set
		for i := 0; i < b.N; i++ {
			c := packet.MakeClock(0, uint64(i+1))
			if !s.Has(c) {
				s.Add(c)
			}
		}
	})
}

// logEntry has the shape of the root's log entry: a pointer and three words.
type logEntry struct {
	pkt        *packet.Packet
	vec, xor   uint32
	sentAt     int64
	got, class uint8
}

// BenchmarkRootLog is the root packet log: every clock is logged, and
// looked up and deleted once the chain has finished with it, 256 clocks
// later.
func BenchmarkRootLog(b *testing.B) {
	const behind = 256
	pkt := new(packet.Packet)
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		m := make(map[uint64]*logEntry)
		for i := 0; i < b.N; i++ {
			c := packet.MakeClock(0, uint64(i+1))
			m[c] = &logEntry{pkt: pkt, sentAt: int64(i)}
			if i >= behind {
				if ent, ok := m[c-behind]; ok {
					ent.got = 1
					delete(m, c-behind)
				}
			}
		}
	})
	b.Run("table", func(b *testing.B) {
		b.ReportAllocs()
		var t Table[logEntry]
		for i := 0; i < b.N; i++ {
			c := packet.MakeClock(0, uint64(i+1))
			*t.Put(c) = logEntry{pkt: pkt, sentAt: int64(i)}
			if i >= behind {
				if ent := t.Get(c - behind); ent != nil {
					ent.got = 1
					t.Delete(c - behind)
				}
			}
		}
	})
}
