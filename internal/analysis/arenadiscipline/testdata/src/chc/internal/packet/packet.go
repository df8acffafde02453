// Package packet stubs the pooled-arena surface: (*Arena).Put is the
// end-of-ownership point the arenadiscipline analyzer tracks.
package packet

type Meta struct {
	Clock uint64
	Flags uint8
}

type Packet struct {
	PayloadLen uint16
	Meta       Meta
}

type Arena struct{}

func (a *Arena) Get() *Packet  { return &Packet{} }
func (a *Arena) Put(p *Packet) {}

// Clone returns an independent copy (the sanctioned retention shape).
func (a *Arena) Clone(p *Packet) *Packet {
	q := *p
	return &q
}
