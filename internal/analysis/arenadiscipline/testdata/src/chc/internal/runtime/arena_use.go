// Package runtime is the arenadiscipline fixture: reads of a pooled
// packet after its arena.Put versus the capture-/clone-before-release
// idioms from the live hot path.
package runtime

import "chc/internal/packet"

type chain struct {
	arena *packet.Arena
	log   map[uint64]*packet.Packet
}

type packetMsg struct{ Pkt *packet.Packet }

func (c *chain) useAfterRelease(pkt *packet.Packet) uint64 {
	c.arena.Put(pkt)
	return pkt.Meta.Clock // want `pooled packet pkt used after arena\.Put`
}

func (c *chain) selectorUseAfterRelease(m packetMsg) {
	c.arena.Put(m.Pkt)
	m.Pkt.Meta.Flags = 0 // want `pooled packet m\.Pkt used after arena\.Put`
}

func (c *chain) doubleRelease(pkt *packet.Packet) {
	c.arena.Put(pkt)
	c.arena.Put(pkt) // want `pooled packet pkt released twice`
}

// goodCapture is the handlePacket idiom: read every field the
// continuation needs, then release.
func (c *chain) goodCapture(pkt *packet.Packet) uint64 {
	clock := pkt.Meta.Clock
	c.arena.Put(pkt)
	return clock
}

// goodCloneBeforeLog is the root's clone-before-log shape: the retained
// copy is a different buffer, so releasing the original is safe.
func (c *chain) goodCloneBeforeLog(m packetMsg) {
	cp := c.arena.Clone(m.Pkt)
	c.log[cp.Meta.Clock] = cp
	c.arena.Put(m.Pkt)
}

// goodReassign: a released name rebound to a fresh buffer is live again.
func (c *chain) goodReassign(pkt *packet.Packet) uint64 {
	c.arena.Put(pkt)
	pkt = c.arena.Get()
	return pkt.Meta.Clock
}

// goodBranch: a release on one branch does not taint the fall-through
// (the conservative fork that keeps every report a straight-line bug).
func (c *chain) goodBranch(pkt *packet.Packet, consumed bool) uint8 {
	if !consumed {
		c.arena.Put(pkt)
		return 0
	}
	return pkt.Meta.Flags
}

func (c *chain) allowed(pkt *packet.Packet) uint8 {
	c.arena.Put(pkt)
	return pkt.Meta.Flags //chc:allow arenadiscipline -- fixture: dup-suppressed path retains the buffer deliberately (leak-not-free policy)
}

func (c *chain) reasonless(pkt *packet.Packet) uint64 {
	c.arena.Put(pkt)
	//chc:allow arenadiscipline // want "reasonless suppression"
	return pkt.Meta.Clock // want `used after arena\.Put`
}
