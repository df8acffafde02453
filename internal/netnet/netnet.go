// Package netnet implements transport.Transport over real TCP sockets, so
// one chain's vertices and store shards can span OS processes (and
// machines). It is the third substrate: internal/simnet stays the
// deterministic oracle, internal/livenet the single-process performance
// path, and netnet carries the same protocols across a wire.
//
// Architecture: a netnet.Net is one NODE's view of the network. Execution
// (processes, timers, signals, mailboxes, the link model, crash state) is
// delegated to an embedded livenet core — netnet adds only the distribution
// layer. Every Send/Call resolves the destination endpoint through a
// transport.NodeMap: local endpoints dispatch straight into the core
// (identical to livenet, zero copies); remote endpoints are encoded with
// the transport.Wire registry, framed, and written to the destination
// node's TCP connection. The receiving node decodes and dispatches into
// ITS core, which applies the link model once (transport.Link.Plan: loss,
// latency, duplication are modeled at the receiving node; TCP itself is
// reliable), with Message.Size derived from the encoded length so
// bandwidth accounting reflects bytes that actually crossed the wire.
//
// Ordering: frames to one peer are written under a per-connection lock in
// send order, TCP preserves byte order, and each connection has a single
// reader dispatching sequentially into the core's ordered delivery path —
// so per-link FIFO holds end to end, bursts included.
//
// RPCs: a cross-node Call arms the calling process's call slot (livenet's
// per-process slot), registers the slot and its generation under a fresh
// call ID, ships the encoded body, and blocks on the slot. The callee
// receives an ordinary transport.Call whose Reply encodes the response and
// routes it back to the calling node. There the reply frame enters the
// core's reply path (livenet.Net.Reply) with the registered slot,
// generation and endpoints: the calling node applies the link callee ->
// caller to the reply leg, as the callee's node applied caller -> callee
// to the request leg, so both legs meet the link model once, as on livenet.
//
// Crash/Restart flush in-flight frames first (a ping/pong barrier over
// every open connection), so fail-stop is atomic with respect to traffic
// already accepted by the socket layer — matching the synchronous
// semantics the conformance suite pins for the in-process substrates.
//
// NewCluster wires N nodes inside one OS process, sharing a single
// livenet core but hopping real 127.0.0.1 sockets for cross-node traffic:
// the loopback configuration the conformance suite and the in-process
// multi-node tests run on. New builds one node of a multi-process
// deployment (chcd worker).
package netnet

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"chc/internal/livenet"
	"chc/internal/transport"
)

// Frame kinds on the wire. A frame is [kind u8][len u32][body]; bodies
// are WireEnc-encoded.
const (
	frameHello uint8 = iota + 1 // Str(node): dialer identifies itself
	frameMsg                    // Str(from) Str(to) Blob(payload)
	frameBurst                  // U32 n, then n × (Str(from) Str(to) Blob(payload))
	frameCall                   // U64 id, Str(callerNode), Str(from), Str(to), Blob(payload)
	frameReply                  // U64 id, Blob(payload)
	framePing                   // U64 seq, Str(fromNode)
	framePong                   // U64 seq
)

// maxFrame bounds one frame body (a corrupt peer cannot OOM the reader).
const maxFrame = 64 << 20

// frameAllocOnce is the largest frame body readFrame reads whole into the
// connection's buffer before it arrives.
const frameAllocOnce = 64 << 10

// dialRetryFor is how long connTo keeps retrying a peer that is not up
// yet (worker bring-up order is unconstrained).
const dialRetryFor = 15 * time.Second

// writeTimeout bounds one frame write: a peer that stops reading costs
// its senders this long, then its connection is closed and the peer is
// marked down, like any other write failure (loss).
const writeTimeout = 2 * time.Second

// flushTimeout bounds the Crash/Restart barrier when a peer is dead.
const flushTimeout = time.Second

// Config tunes one netnet node.
type Config struct {
	// Seed drives the local core's loss/jitter/Intn draws.
	Seed int64
	// DefaultLink applies to links without an explicit SetLink.
	DefaultLink transport.LinkConfig
	// Node is this process's node name in Nodes.
	Node string
	// Nodes maps every endpoint to its hosting node and every node to its
	// dial address.
	Nodes *transport.NodeMap
	// ListenAddr overrides the listen address (defaults to Nodes' address
	// for Node, or 127.0.0.1:0). The real bound address is written back
	// into Nodes after listen.
	ListenAddr string
}

// wconn is one outbound connection with serialized writes.
type wconn struct {
	mu sync.Mutex
	c  net.Conn
}

// NetStats counts this node's cross-node traffic (sender side).
type NetStats struct {
	RemoteMsgs  uint64 `json:"remote_msgs"`  // messages shipped to another node (burst members included)
	RemoteCalls uint64 `json:"remote_calls"` // RPCs shipped to another node
	RemoteBytes uint64 `json:"remote_bytes"` // frame bytes written
}

// Net is one node of a networked transport. It implements
// transport.Transport and transport.BurstSender: the embedded livenet core
// serves processes, timers, signals, link configuration and statistics,
// and Net overrides what the wire changes (Send, SendBurst, Call, Crash,
// Restart, Shutdown).
type Net struct {
	*livenet.Net
	ownsInner bool
	node      string
	nodes     *transport.NodeMap

	ln net.Listener
	wg sync.WaitGroup

	mu      sync.Mutex
	conns   map[string]*wconn // outbound, by peer node
	inbound map[net.Conn]struct{}
	down    map[string]bool // peers whose connection failed
	pings   map[uint64]chan struct{}
	closed  bool

	pingSeq atomic.Uint64
	callSeq atomic.Uint64
	callsMu sync.Mutex
	calls   map[uint64]pendingCall // call id -> the caller's slot

	remoteMsgs  atomic.Uint64
	remoteCalls atomic.Uint64
	remoteBytes atomic.Uint64
}

// New creates one node of a multi-process deployment: a livenet core plus
// a TCP hub listening for peer traffic.
func New(cfg Config) (*Net, error) {
	if cfg.Node == "" || cfg.Nodes == nil {
		return nil, fmt.Errorf("netnet: Config.Node and Config.Nodes are required")
	}
	inner := livenet.New(livenet.Config{Seed: cfg.Seed, DefaultLink: cfg.DefaultLink})
	n, err := newNode(inner, cfg.Node, cfg.Nodes, cfg.ListenAddr)
	if err != nil {
		inner.Shutdown()
		return nil, err
	}
	n.ownsInner = true
	return n, nil
}

// newNode attaches a TCP hub for node to an existing core.
func newNode(inner *livenet.Net, node string, nodes *transport.NodeMap, listenAddr string) (*Net, error) {
	if listenAddr == "" {
		listenAddr = nodes.Addr(node)
	}
	if listenAddr == "" {
		listenAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("netnet: listen %s for node %s: %w", listenAddr, node, err)
	}
	n := &Net{
		Net:     inner,
		node:    node,
		nodes:   nodes,
		ln:      ln,
		conns:   make(map[string]*wconn),
		inbound: make(map[net.Conn]struct{}),
		down:    make(map[string]bool),
		pings:   make(map[uint64]chan struct{}),
		calls:   make(map[uint64]pendingCall),
	}
	nodes.SetAddr(node, ln.Addr().String())
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Node returns this node's name.
func (n *Net) Node() string { return n.node }

// Nodes returns the addressing map.
func (n *Net) Nodes() *transport.NodeMap { return n.nodes }

// Stats returns this node's cross-node traffic counters.
func (n *Net) Stats() NetStats {
	return NetStats{
		RemoteMsgs:  n.remoteMsgs.Load(),
		RemoteCalls: n.remoteCalls.Load(),
		RemoteBytes: n.remoteBytes.Load(),
	}
}

func (n *Net) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			c.Close()
			return
		}
		n.inbound[c] = struct{}{}
		n.wg.Add(1)
		n.mu.Unlock()
		go n.serveConn(c)
	}
}

// serveConn is the single reader for one inbound connection: it dispatches
// frames sequentially, which is what preserves cross-node FIFO. A frame is
// read into the connection's one buffer (readFrame) and every payload in
// it is decoded from a view of that buffer, by the connection's one
// payload decoder; decoded values share no memory with their encoding, so
// the next frame may overwrite it.
func (n *Net) serveConn(c net.Conn) {
	defer n.wg.Done()
	defer func() {
		c.Close()
		n.mu.Lock()
		delete(n.inbound, c)
		n.mu.Unlock()
	}()
	br := bufio.NewReader(c)
	peer := ""
	var (
		buf   []byte
		d, pd transport.WireDec // the frame's decoder, and its payloads'
	)
	for {
		kind, body, err := readFrame(br, &buf)
		if err != nil {
			if peer != "" {
				n.markDown(peer)
			}
			return
		}
		d.Reset(body)
		switch kind {
		case frameHello:
			peer = d.Str()
		case frameMsg:
			from, to, enc := d.Str(), d.Str(), d.View()
			if d.Err() != nil {
				continue
			}
			payload, err := pd.DecodePayload(enc)
			if err != nil {
				continue
			}
			n.Net.Send(transport.Message{From: from, To: to, Payload: payload, Size: len(enc)})
		case frameBurst:
			cnt := d.Len(8)
			msgs := make([]transport.Message, 0, cnt)
			for i := 0; i < cnt && d.Err() == nil; i++ {
				from, to, enc := d.Str(), d.Str(), d.View()
				payload, err := pd.DecodePayload(enc)
				if err != nil {
					continue
				}
				msgs = append(msgs, transport.Message{From: from, To: to, Payload: payload, Size: len(enc)})
			}
			n.Net.SendBurst(msgs)
		case frameCall:
			id, callerNode, from, to, enc := d.U64(), d.Str(), d.Str(), d.Str(), d.View()
			if d.Err() != nil {
				continue
			}
			payload, err := pd.DecodePayload(enc)
			if err != nil {
				continue
			}
			rc := &remoteCall{n: n, node: callerNode, id: id, from: from, body: payload}
			n.Net.Send(transport.Message{From: from, To: to, Payload: rc, Size: len(enc)})
		case frameReply:
			id, enc := d.U64(), d.View()
			if d.Err() != nil {
				continue
			}
			payload, err := pd.DecodePayload(enc)
			if err != nil {
				continue
			}
			n.callsMu.Lock()
			pc, ok := n.calls[id]
			n.callsMu.Unlock()
			if ok {
				n.Net.Reply(pc.caller, pc.gen, pc.from, pc.to, payload, len(enc))
			}
		case framePing:
			seq, fromNode := d.U64(), d.Str()
			if d.Err() != nil {
				continue
			}
			e := &transport.WireEnc{}
			e.U64(seq)
			n.writeFrame(fromNode, framePong, e.Bytes()) //nolint:errcheck // pong loss = barrier timeout
		case framePong:
			seq := d.U64()
			n.mu.Lock()
			if ch, ok := n.pings[seq]; ok {
				delete(n.pings, seq)
				close(ch)
			}
			n.mu.Unlock()
		}
	}
}

// readFrame reads one frame. A body of up to frameAllocOnce bytes lands
// in *buf, grown as needed and valid until the next call; a larger one
// gets its own memory.
func readFrame(br *bufio.Reader, buf *[]byte) (uint8, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, nil, err
	}
	size := int(uint32(hdr[1])<<24 | uint32(hdr[2])<<16 | uint32(hdr[3])<<8 | uint32(hdr[4]))
	if size > maxFrame {
		return 0, nil, fmt.Errorf("netnet: frame of %d bytes exceeds limit", size)
	}
	if size <= frameAllocOnce {
		if cap(*buf) < size {
			*buf = make([]byte, min(frameAllocOnce, max(size, 2*cap(*buf))))
		}
		body := (*buf)[:size]
		if _, err := io.ReadFull(br, body); err != nil {
			return 0, nil, err
		}
		return hdr[0], body, nil
	}
	// A header alone must not cost the declared size: a larger body grows
	// only as its bytes arrive.
	body, err := io.ReadAll(io.LimitReader(br, int64(size)))
	if err == nil && len(body) < size {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return 0, nil, err
	}
	return hdr[0], body, nil
}

func (n *Net) markDown(node string) {
	n.mu.Lock()
	n.down[node] = true
	delete(n.conns, node)
	n.mu.Unlock()
}

// connTo returns (dialing on first use) the outbound connection to a peer
// node, retrying while the peer is still coming up. A peer already marked
// down gets ONE fast dial attempt per send instead of the startup retry
// loop: after a peer process dies, every queued message to it must fail
// as fast as a dropped packet, not stall the sender for dialRetryFor. A
// node with no address (one the NodeMap does not declare, named by a
// frame) fails at once: no bring-up will ever give it one.
func (n *Net) connTo(node string) (*wconn, error) {
	n.mu.Lock()
	if wc, ok := n.conns[node]; ok {
		n.mu.Unlock()
		return wc, nil
	}
	if n.closed {
		n.mu.Unlock()
		return nil, fmt.Errorf("netnet: node %s is shut down", n.node)
	}
	wasDown := n.down[node]
	n.mu.Unlock()
	addr := n.nodes.Addr(node)
	if addr == "" {
		return nil, fmt.Errorf("netnet: no address for node %q", node)
	}

	var c net.Conn
	var err error
	deadline := time.Now().Add(dialRetryFor)
	for {
		c, err = net.DialTimeout("tcp", addr, time.Second)
		if err == nil || wasDown || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		n.markDown(node)
		return nil, err
	}

	n.mu.Lock()
	if existing, ok := n.conns[node]; ok {
		n.mu.Unlock()
		c.Close()
		return existing, nil
	}
	if n.closed {
		n.mu.Unlock()
		c.Close()
		return nil, fmt.Errorf("netnet: node %s is shut down", n.node)
	}
	wc := &wconn{c: c}
	n.conns[node] = wc
	delete(n.down, node)
	n.mu.Unlock()

	e := &transport.WireEnc{}
	e.Str(n.node)
	if err := n.writeOn(wc, node, frameHello, e.Bytes()); err != nil {
		return nil, err
	}
	return wc, nil
}

// writeFrame ships one frame to a peer node, synchronously: when it
// returns nil the frame is in the socket's send path, ordered after every
// earlier frame to that peer.
func (n *Net) writeFrame(node string, kind uint8, body []byte) error {
	wc, err := n.connTo(node)
	if err != nil {
		return err
	}
	return n.writeOn(wc, node, kind, body)
}

func (n *Net) writeOn(wc *wconn, node string, kind uint8, body []byte) error {
	buf := make([]byte, 5+len(body))
	buf[0] = kind
	buf[1] = byte(len(body) >> 24)
	buf[2] = byte(len(body) >> 16)
	buf[3] = byte(len(body) >> 8)
	buf[4] = byte(len(body))
	copy(buf[5:], body)
	wc.mu.Lock()
	err := wc.c.SetWriteDeadline(time.Now().Add(writeTimeout))
	if err == nil {
		_, err = wc.c.Write(buf)
	}
	wc.mu.Unlock()
	if err != nil {
		wc.c.Close()
		n.mu.Lock()
		if n.conns[node] == wc {
			delete(n.conns, node)
		}
		n.down[node] = true
		n.mu.Unlock()
		return err
	}
	n.remoteBytes.Add(uint64(len(buf)))
	return nil
}

// encodeMsg appends one (from, to, payload) message body.
func encodeMsg(e *transport.WireEnc, msg transport.Message) error {
	enc, err := transport.EncodePayload(msg.Payload)
	if err != nil {
		return err
	}
	e.Str(msg.From)
	e.Str(msg.To)
	e.Blob(enc)
	return nil
}

// Send transmits msg: straight into the core when the destination is
// local, framed over TCP otherwise. A cross-node payload without a Wire
// codec panics — that is a protocol-definition bug the wirecodec lint
// catches statically, never a runtime condition to tolerate.
func (n *Net) Send(msg transport.Message) {
	dst := n.nodes.NodeOf(msg.To)
	if dst == n.node || dst == "" {
		n.Net.Send(msg)
		return
	}
	e := &transport.WireEnc{}
	if err := encodeMsg(e, msg); err != nil {
		panic(err)
	}
	n.remoteMsgs.Add(1)
	n.writeFrame(dst, frameMsg, e.Bytes()) //nolint:errcheck // failed write = network loss
}

// SendBurst ships a burst, grouping consecutive same-node runs into one
// frame each; local runs go to the core's burst path unchanged.
func (n *Net) SendBurst(msgs []transport.Message) {
	for i := 0; i < len(msgs); {
		dst := n.nodes.NodeOf(msgs[i].To)
		j := i + 1
		for j < len(msgs) && n.nodes.NodeOf(msgs[j].To) == dst {
			j++
		}
		run := msgs[i:j]
		if dst == n.node || dst == "" {
			n.Net.SendBurst(run)
		} else {
			e := &transport.WireEnc{}
			e.U32(uint32(len(run)))
			for _, m := range run {
				if err := encodeMsg(e, m); err != nil {
					panic(err)
				}
			}
			n.remoteMsgs.Add(uint64(len(run)))
			n.writeFrame(dst, frameBurst, e.Bytes()) //nolint:errcheck // failed write = network loss
		}
		i = j
	}
}

// pendingCall is a cross-node call awaiting its reply frame: the caller's
// slot, the generation the call armed, and the call's endpoints (the reply
// travels the link to -> from).
type pendingCall struct {
	caller   *livenet.Proc
	gen      uint64
	from, to string
}

// Call performs an RPC. Local callees use the core's call path; remote
// callees get the encoded body with a correlation ID, and the caller
// blocks on its slot, which the reply frame resolves.
func (n *Net) Call(p transport.Proc, from, to string, payload any, size int, timeout time.Duration) (any, bool) {
	dst := n.nodes.NodeOf(to)
	if dst == n.node || dst == "" {
		return n.Net.Call(p, from, to, payload, size, timeout)
	}
	enc, err := transport.EncodePayload(payload)
	if err != nil {
		panic(err)
	}
	lp := p.(*livenet.Proc)
	id := n.callSeq.Add(1)
	n.callsMu.Lock()
	n.calls[id] = pendingCall{caller: lp, gen: lp.ArmCall(), from: from, to: to}
	n.callsMu.Unlock()
	defer func() {
		n.callsMu.Lock()
		delete(n.calls, id)
		n.callsMu.Unlock()
	}()
	e := &transport.WireEnc{}
	e.U64(id)
	e.Str(n.node)
	e.Str(from)
	e.Str(to)
	e.Blob(enc)
	n.remoteCalls.Add(1)
	if err := n.writeFrame(dst, frameCall, e.Bytes()); err != nil {
		return nil, false
	}
	return lp.AwaitCall(timeout)
}

// remoteCall is the callee-side view of a cross-node RPC.
type remoteCall struct {
	n    *Net
	node string // calling node (reply destination)
	id   uint64
	from string
	body any
}

// From returns the calling endpoint's name.
func (c *remoteCall) From() string { return c.from }

// Body returns the request payload.
func (c *remoteCall) Body() any { return c.body }

// Reply ships the response back to the calling node, whose core applies
// the reply leg's link model when the frame arrives. Every reply ships, as
// every reply on livenet meets the link; the caller's slot keeps the
// first one that lands.
func (c *remoteCall) Reply(v any, size int) {
	enc, err := transport.EncodePayload(v)
	if err != nil {
		panic(err)
	}
	e := &transport.WireEnc{}
	e.U64(c.id)
	e.Blob(enc)
	c.n.writeFrame(c.node, frameReply, e.Bytes()) //nolint:errcheck // failed write = lost reply (caller times out)
}

// flush is the in-flight barrier: a ping down every open connection, and
// a bounded wait for the pongs. When it returns, every frame written
// before it was called has been dispatched into the receiving cores
// (per-connection FIFO: the peer answered the ping only after processing
// everything ahead of it).
func (n *Net) flush() {
	n.mu.Lock()
	peers := make([]string, 0, len(n.conns))
	for node := range n.conns {
		if !n.down[node] {
			peers = append(peers, node)
		}
	}
	n.mu.Unlock()
	waits := make([]chan struct{}, 0, len(peers))
	for _, node := range peers {
		seq := n.pingSeq.Add(1)
		ch := make(chan struct{})
		n.mu.Lock()
		n.pings[seq] = ch
		n.mu.Unlock()
		e := &transport.WireEnc{}
		e.U64(seq)
		e.Str(n.node)
		if err := n.writeFrame(node, framePing, e.Bytes()); err != nil {
			n.mu.Lock()
			delete(n.pings, seq)
			n.mu.Unlock()
			continue
		}
		waits = append(waits, ch)
	}
	deadline := time.NewTimer(flushTimeout)
	defer deadline.Stop()
	for _, ch := range waits {
		select {
		case <-ch:
		case <-deadline.C:
			return
		}
	}
}

// Crash fail-stops an endpoint after flushing in-flight frames, so the
// inbox drain cannot race traffic already accepted by the socket layer.
func (n *Net) Crash(name string) {
	n.flush()
	n.Net.Crash(name)
}

// Restart brings a crashed endpoint back with an empty inbox (flushing
// first: frames sent pre-restart land pre-restart).
func (n *Net) Restart(name string) {
	n.flush()
	n.Net.Restart(name)
}

// closeHub tears down the TCP layer: listener, connections, readers.
func (n *Net) closeHub() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		n.wg.Wait()
		return
	}
	n.closed = true
	conns := make([]net.Conn, 0, len(n.conns)+len(n.inbound))
	for _, wc := range n.conns {
		conns = append(conns, wc.c)
	}
	for c := range n.inbound {
		conns = append(conns, c)
	}
	n.conns = make(map[string]*wconn)
	for seq, ch := range n.pings {
		delete(n.pings, seq)
		close(ch)
	}
	n.mu.Unlock()
	n.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	n.wg.Wait()
}

// Shutdown stops the TCP layer and (when this node owns it) the core.
func (n *Net) Shutdown() {
	n.closeHub()
	if n.ownsInner {
		n.Net.Shutdown()
	}
}
