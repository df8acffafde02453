package transport

// The Wire registry is the payload-codec surface that makes a networked
// substrate possible at all. Message.Payload is `any`: on simnet and
// livenet payloads travel as in-process Go values (pointers included),
// which is exactly right for a single address space and exactly wrong for
// a socket. Every protocol payload type therefore registers, once, a
// STABLE type tag plus a canonical encode/decode pair; internal/netnet
// frames cross-node messages as [tag][body] and derives Message.Size from
// the encoded length, so the link model accounts the bytes that really
// cross the wire.
//
// Canonical means: fixed-width big-endian scalars, length-prefixed
// strings/byte slices, and map entries emitted in sorted key order — the
// same value always encodes to the same bytes (encode→decode→re-encode is
// byte-stable, pinned by the round-trip tests). Tags are allocated in
// DESIGN.md §12's table and never reused: 1–15 transport-owned basics,
// 16–47 the store protocol, 48–79 the chain runtime. Registration happens
// in the payload's defining package (an init in its wire.go), so importing
// a protocol package is sufficient to make its payloads wire-codable.
//
// The chclint `wirecodec` analyzer closes the loop mechanically: any type
// a ported package sends as a Message.Payload, Call body or Call reply
// must appear in this registry, so "works in-process, panics on the wire"
// cannot ship.

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
)

// WireEnc appends canonical binary encodings of payload fields.
type WireEnc struct{ b []byte }

// NewWireEnc returns an encoder that appends to b: the encoding goes into
// b's spare capacity and allocates only if it outgrows it, so a caller
// that owns a large enough buffer (a log segment) encodes without
// allocating.
func NewWireEnc(b []byte) WireEnc { return WireEnc{b: b} }

// Bytes returns the accumulated encoding.
func (e *WireEnc) Bytes() []byte { return e.b }

// U8 appends one byte.
func (e *WireEnc) U8(v uint8) { e.b = append(e.b, v) }

// Bool appends a bool as one byte.
func (e *WireEnc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U16 appends a big-endian uint16.
func (e *WireEnc) U16(v uint16) { e.b = binary.BigEndian.AppendUint16(e.b, v) }

// U32 appends a big-endian uint32.
func (e *WireEnc) U32(v uint32) { e.b = binary.BigEndian.AppendUint32(e.b, v) }

// U64 appends a big-endian uint64.
func (e *WireEnc) U64(v uint64) { e.b = binary.BigEndian.AppendUint64(e.b, v) }

// I64 appends a big-endian int64 (two's complement).
func (e *WireEnc) I64(v int64) { e.U64(uint64(v)) }

// F64 appends an IEEE-754 float64.
func (e *WireEnc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str appends a length-prefixed string.
func (e *WireEnc) Str(s string) {
	e.U32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// Blob appends a length-prefixed byte slice. Nil and empty both encode as
// length 0 (canonical form does not distinguish them).
func (e *WireEnc) Blob(p []byte) {
	e.U32(uint32(len(p)))
	e.b = append(e.b, p...)
}

// I64s appends a length-prefixed []int64.
func (e *WireEnc) I64s(vs []int64) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.I64(v)
	}
}

// U64s appends a length-prefixed []uint64.
func (e *WireEnc) U64s(vs []uint64) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.U64(v)
	}
}

// MapU16U64 appends a map[uint16]uint64 with entries in ascending key
// order (canonical: map iteration order never leaks into the encoding).
func (e *WireEnc) MapU16U64(m map[uint16]uint64) {
	if len(m) == 0 {
		e.U32(0)
		return
	}
	keys := make([]uint16, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		e.U16(k)
		e.U64(m[k])
	}
}

// MapU64U16 appends a map[uint64]uint16 in ascending key order.
func (e *WireEnc) MapU64U16(m map[uint64]uint16) {
	if len(m) == 0 {
		e.U32(0)
		return
	}
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		e.U64(k)
		e.U16(m[k])
	}
}

// MapStrI64 appends a map[string]int64 in ascending key order.
func (e *WireEnc) MapStrI64(m map[string]int64) {
	if len(m) == 0 {
		e.U32(0)
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		e.Str(k)
		e.I64(m[k])
	}
}

// WireDec reads canonical encodings. Errors latch: after the first
// short read every subsequent accessor returns the zero value, and
// DecodePayload reports the latched error.
type WireDec struct {
	b   []byte
	off int
	err error
}

// NewWireDec wraps b for decoding (codec tests).
func NewWireDec(b []byte) *WireDec { return &WireDec{b: b} }

// Reset points d at b, so that one decoder serves a stream of inputs.
func (d *WireDec) Reset(b []byte) { *d = WireDec{b: b} }

// Err returns the latched decode error, if any.
func (d *WireDec) Err() error { return d.err }

// Rest reports how many bytes remain unconsumed.
func (d *WireDec) Rest() int { return len(d.b) - d.off }

func (d *WireDec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b)-d.off < n {
		d.err = fmt.Errorf("wire: short payload: need %d bytes at offset %d of %d", n, d.off, len(d.b))
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

// U8 reads one byte.
func (d *WireDec) U8() uint8 {
	p := d.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// Bool reads a one-byte bool.
func (d *WireDec) Bool() bool { return d.U8() != 0 }

// U16 reads a big-endian uint16.
func (d *WireDec) U16() uint16 {
	p := d.take(2)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint16(p)
}

// U32 reads a big-endian uint32.
func (d *WireDec) U32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint32(p)
}

// U64 reads a big-endian uint64.
func (d *WireDec) U64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint64(p)
}

// I64 reads a big-endian int64.
func (d *WireDec) I64() int64 { return int64(d.U64()) }

// F64 reads an IEEE-754 float64.
func (d *WireDec) F64() float64 { return math.Float64frombits(d.U64()) }

// Len reads a u32 element count whose elements occupy at least elemSize
// bytes each, bounding it by the remaining bytes so a corrupt prefix
// cannot force a giant allocation. Codecs use it for every slice field.
func (d *WireDec) Len(elemSize int) int { return d.length(elemSize) }

// length reads a u32 length prefix, bounding it by the remaining bytes
// (a corrupt length cannot force a giant allocation).
func (d *WireDec) length(elemSize int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if elemSize > 0 && n > d.Rest()/elemSize {
		d.err = fmt.Errorf("wire: corrupt length %d exceeds remaining payload", n)
		return 0
	}
	return n
}

// Str reads a length-prefixed string.
func (d *WireDec) Str() string {
	n := d.length(1)
	p := d.take(n)
	if p == nil {
		return ""
	}
	return string(p)
}

// Blob reads a length-prefixed byte slice (nil when empty: canonical).
func (d *WireDec) Blob() []byte { return append([]byte(nil), d.View()...) }

// View reads a length-prefixed byte slice without copying it: the result
// aliases the input and is valid only as long as the input is (nil when
// empty). Codecs use Blob; View is for framing whose payload is decoded
// at once.
func (d *WireDec) View() []byte {
	n := d.length(1)
	if n == 0 {
		return nil
	}
	return d.take(n)
}

// I64s reads a length-prefixed []int64 (nil when empty).
func (d *WireDec) I64s() []int64 {
	n := d.length(8)
	if n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = d.I64()
	}
	return out
}

// U64s reads a length-prefixed []uint64 (nil when empty).
func (d *WireDec) U64s() []uint64 {
	n := d.length(8)
	if n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = d.U64()
	}
	return out
}

// MapU16U64 reads a sorted map[uint16]uint64 (nil when empty).
func (d *WireDec) MapU16U64() map[uint16]uint64 {
	n := d.length(10)
	if n == 0 {
		return nil
	}
	m := make(map[uint16]uint64, n)
	for i := 0; i < n; i++ {
		k := d.U16()
		m[k] = d.U64()
	}
	return m
}

// MapU64U16 reads a sorted map[uint64]uint16 (nil when empty).
func (d *WireDec) MapU64U16() map[uint64]uint16 {
	n := d.length(10)
	if n == 0 {
		return nil
	}
	m := make(map[uint64]uint16, n)
	for i := 0; i < n; i++ {
		k := d.U64()
		m[k] = d.U16()
	}
	return m
}

// MapStrI64 reads a sorted map[string]int64 (nil when empty).
func (d *WireDec) MapStrI64() map[string]int64 {
	n := d.length(12)
	if n == 0 {
		return nil
	}
	m := make(map[string]int64, n)
	for i := 0; i < n; i++ {
		k := d.Str()
		m[k] = d.I64()
	}
	return m
}

// wireCodec is one registered payload type.
type wireCodec struct {
	tag  uint16
	name string
	typ  reflect.Type
	enc  func(*WireEnc, any)
	dec  func(*WireDec) any
}

var (
	wireMu     sync.RWMutex
	wireByTag  = make(map[uint16]*wireCodec)
	wireByType = make(map[reflect.Type]*wireCodec)
)

// RegisterWire registers the canonical codec for payload type T under a
// stable tag. Tags identify the type on the wire and MUST never be
// reused or renumbered (DESIGN.md §12 is the allocation table); name is
// the human-readable identity shown in errors and docs. Registration is
// done once, in T's defining package, at init time; duplicate tags or
// types panic immediately (a silently shadowed codec would corrupt every
// cross-node message of that type).
func RegisterWire[T any](tag uint16, name string, enc func(*WireEnc, T), dec func(*WireDec) T) {
	typ := reflect.TypeOf((*T)(nil)).Elem()
	c := &wireCodec{
		tag:  tag,
		name: name,
		typ:  typ,
		enc:  func(e *WireEnc, v any) { enc(e, v.(T)) },
		dec:  func(d *WireDec) any { return dec(d) },
	}
	wireMu.Lock()
	defer wireMu.Unlock()
	if prev, ok := wireByTag[tag]; ok {
		panic(fmt.Sprintf("transport: wire tag %d already registered for %s (re-registering as %s)", tag, prev.name, name))
	}
	if prev, ok := wireByType[typ]; ok {
		panic(fmt.Sprintf("transport: wire type %v already registered as %s tag %d", typ, prev.name, prev.tag))
	}
	wireByTag[tag] = c
	wireByType[typ] = c
}

// WireRegistered reports whether v's concrete type has a registered codec.
func WireRegistered(v any) bool {
	wireMu.RLock()
	defer wireMu.RUnlock()
	_, ok := wireByType[reflect.TypeOf(v)]
	return ok
}

// WireInfo describes one registry entry (docs and drift guards).
type WireInfo struct {
	Tag  uint16
	Name string
}

// WireEntries returns every registered codec sorted by tag.
func WireEntries() []WireInfo {
	wireMu.RLock()
	defer wireMu.RUnlock()
	out := make([]WireInfo, 0, len(wireByTag))
	for _, c := range wireByTag {
		out = append(out, WireInfo{Tag: c.tag, Name: c.name})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Tag < out[b].Tag })
	return out
}

// EncodePayload encodes v as [tag u16][canonical body]. The error names
// the unregistered type — the wirecodec analyzer makes hitting it at
// runtime a lint failure first.
func EncodePayload(v any) ([]byte, error) {
	wireMu.RLock()
	c, ok := wireByType[reflect.TypeOf(v)]
	wireMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("transport: payload type %T has no Wire codec (register it with transport.RegisterWire)", v)
	}
	e := &WireEnc{b: make([]byte, 0, 64)}
	e.U16(c.tag)
	c.enc(e, v)
	return e.Bytes(), nil
}

// DecodePayload decodes an EncodePayload frame back into its Go value.
// Trailing bytes are an error: canonical frames are exactly consumed.
// The value shares no memory with b.
func DecodePayload(b []byte) (any, error) { return new(WireDec).DecodePayload(b) }

// DecodePayload is the package function DecodePayload with d as the
// decoder, Reset to b: a reader that decodes many payloads reuses one.
func (d *WireDec) DecodePayload(b []byte) (any, error) {
	d.Reset(b)
	tag := d.U16()
	if d.err != nil {
		return nil, d.err
	}
	wireMu.RLock()
	c, ok := wireByTag[tag]
	wireMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("transport: unknown wire tag %d (version skew or unregistered codec)", tag)
	}
	v := c.dec(d)
	if d.err != nil {
		return nil, fmt.Errorf("transport: decode %s: %w", c.name, d.err)
	}
	if d.Rest() != 0 {
		return nil, fmt.Errorf("transport: decode %s: %d trailing bytes", c.name, d.Rest())
	}
	return v, nil
}

// Transport-owned basic payloads (tags 1–15). The conformance suite and
// tests exercise transports with plain ints; registering them here keeps
// the suite substrate-agnostic on netnet too.
func init() {
	RegisterWire[int](1, "int",
		func(e *WireEnc, v int) { e.I64(int64(v)) },
		func(d *WireDec) int { return int(d.I64()) })
	RegisterWire[string](2, "string",
		func(e *WireEnc, v string) { e.Str(v) },
		func(d *WireDec) string { return d.Str() })
}
