package transport

import "time"

// LinkConfig describes one direction of a link: propagation latency,
// jitter, serialization bandwidth, and loss/duplication/reorder injection.
//
// Every substrate applies it through Link.Plan, to every message and to
// both legs of every call, in one order of effects: a cut link or a down
// end drops the message; then loss is drawn; then jitter; then the
// transmitter serializes the message behind earlier ones; then reordering
// and duplication are drawn. A lost message never occupies the
// transmitter, and a duplicate lands at the same instant as its original.
// A landing copy is dropped if its destination went down in flight.
type LinkConfig struct {
	Latency      time.Duration // propagation, one-way
	Jitter       time.Duration // uniform in [0, Jitter)
	BandwidthBps int64         // 0 means infinite (no serialization delay)
	LossProb     float64
	DupProb      float64
	ReorderProb  float64 // probability a message gets ReorderDelay extra
	ReorderDelay time.Duration
}

// Clock reads a substrate's time; a link reads it only to serialize.
type Clock interface{ Now() Time }

// Rand is the random source a link draws from; a link draws only for a
// nonzero probability or jitter.
type Rand interface {
	Float64() float64
	Int63n(n int64) int64
}

// Link is the state of one directed endpoint pair: its configuration, when
// its transmitter is next idle, whether it is up, and its counters. The
// substrate that owns it serializes every access.
type Link struct {
	cfg    LinkConfig
	txFree Time
	up     bool

	sent, delivered, dropped uint64
}

// Plan applies the link model to one transmission of size bytes, counting
// it as sent. endsUp reports whether both endpoints (and the substrate)
// are up. It returns the delivery delay and how many copies travel: 0 when
// the message is dropped, 2 when it is duplicated. The caller lands each
// copy with Land after delay.
func (l *Link) Plan(clock Clock, size int, endsUp bool, rng Rand) (delay time.Duration, copies int) {
	l.sent++
	c := &l.cfg
	if !endsUp || !l.up || (c.LossProb > 0 && rng.Float64() < c.LossProb) {
		l.dropped++
		return 0, 0
	}
	delay = c.Latency
	if c.Jitter > 0 {
		delay += time.Duration(rng.Int63n(int64(c.Jitter)))
	}
	if c.BandwidthBps > 0 && size > 0 {
		// The transmitter is busy size*8/bandwidth, and messages queue
		// behind each other (NIC queueing).
		now := clock.Now()
		l.txFree = max(l.txFree, now).Add(time.Duration(int64(size) * 8 * int64(time.Second) / c.BandwidthBps))
		delay += l.txFree.Sub(now)
	}
	if c.ReorderProb > 0 && rng.Float64() < c.ReorderProb {
		delay += c.ReorderDelay
	}
	copies = 1
	if c.DupProb > 0 && rng.Float64() < c.DupProb {
		copies = 2
	}
	return delay, copies
}

// Land counts one copy reaching its destination: delivered if the
// destination is up, dropped otherwise. It returns up.
func (l *Link) Land(up bool) bool {
	if up {
		l.delivered++
	} else {
		l.dropped++
	}
	return up
}

// Links is a substrate's table of directed links. A link not configured
// with Set takes the table's default on first use. Like Link, it is not
// locked: the owning substrate serializes access.
type Links struct {
	def LinkConfig
	m   map[[2]string]*Link
}

// NewLinks makes a table whose unconfigured links use def.
func NewLinks(def LinkConfig) *Links {
	return &Links{def: def, m: make(map[[2]string]*Link)}
}

// Get returns (making on first use) the link from -> to.
func (ls *Links) Get(from, to string) *Link {
	key := [2]string{from, to}
	if l, ok := ls.m[key]; ok {
		return l
	}
	l := &Link{cfg: ls.def, up: true}
	ls.m[key] = l
	return l
}

// Set replaces the link from -> to with a fresh, up link of cfg.
func (ls *Links) Set(from, to string, cfg LinkConfig) {
	ls.m[[2]string{from, to}] = &Link{cfg: cfg, up: true}
}

// SetUp raises or cuts the link from -> to (partition control).
func (ls *Links) SetUp(from, to string, up bool) { ls.Get(from, to).up = up }

// Stats returns the link's counters. A message is sent once and then
// either dropped or delivered once per landing copy.
func (ls *Links) Stats(from, to string) (sent, delivered, dropped uint64) {
	l := ls.Get(from, to)
	return l.sent, l.delivered, l.dropped
}
