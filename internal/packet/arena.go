package packet

import (
	"sync"
	"sync/atomic"
)

// Arena is a sync.Pool-backed recycler for Packets on the live hot path.
// The root's pacer draws packets from the arena at injection time and the
// chain releases them at the points where ownership provably ends: the
// root's delete verdict (the logged copy), an instance's consume or
// duplicate-suppression decision, and the sink after accounting. Between
// those points ownership is linear — every path that needs to retain a
// packet past its release point (the root log, off-path taps, splitter
// replication, failover replay) takes a Clone() deep copy first, so
// replay can never observe a recycled buffer.
//
// A disabled (or nil) arena degrades to plain allocation: Get returns a
// fresh Packet and Put is a no-op. The DES substrate always runs with the
// arena disabled, keeping its allocation-free-of-side-effects guarantee
// trivially intact; recycling is a live-mode optimization only.
type Arena struct {
	enabled bool
	pool    sync.Pool
	gets    atomic.Uint64
	puts    atomic.Uint64
	allocs  atomic.Uint64
}

// NewArena returns an arena; when enabled is false it degrades to plain
// allocation.
func NewArena(enabled bool) *Arena {
	a := &Arena{enabled: enabled}
	a.pool.New = func() any {
		a.allocs.Add(1)
		return &Packet{}
	}
	return a
}

// Get returns a zeroed Packet, reusing a released one when possible.
func (a *Arena) Get() *Packet {
	if a == nil || !a.enabled {
		return &Packet{}
	}
	a.gets.Add(1)
	p := a.pool.Get().(*Packet)
	*p = Packet{}
	return p
}

// Put releases p back to the arena. The caller must hold the only live
// reference; retaining p past this point is a use-after-free of protocol
// state (the chclint arenadiscipline analyzer enforces this in the
// runtime packages). A duplicated delivery can hand the same pointer to
// two release points; the CAS flag makes the second Put a no-op instead
// of a double-free.
func (a *Arena) Put(p *Packet) {
	if a == nil || !a.enabled || p == nil {
		return
	}
	if !atomic.CompareAndSwapUint32(&p.arenaState, arenaLive, arenaPooled) {
		return
	}
	a.puts.Add(1)
	a.pool.Put(p)
}

// Reuses reports how many Gets were satisfied by a recycled packet rather
// than a fresh allocation (the chcd `arena.reuse` counter).
func (a *Arena) Reuses() uint64 {
	if a == nil {
		return 0
	}
	g, n := a.gets.Load(), a.allocs.Load()
	if n > g {
		return 0
	}
	return g - n
}

// Puts reports released packets (diagnostics).
func (a *Arena) Puts() uint64 {
	if a == nil {
		return 0
	}
	return a.puts.Load()
}
