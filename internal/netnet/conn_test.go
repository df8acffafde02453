package netnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"

	"chc/internal/livenet"
	"chc/internal/transport"
)

// frame encodes one wire frame, [kind u8][len u32][body], as writeOn does.
func frame(kind uint8, body []byte) []byte {
	n := len(body)
	return append([]byte{kind, byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}, body...)
}

// wireBody encodes a frame body with fill.
func wireBody(fill func(e *transport.WireEnc)) []byte {
	e := &transport.WireEnc{}
	fill(e)
	return e.Bytes()
}

// payload is the encoding of an int payload.
func payload(t testing.TB, v int) []byte {
	enc, err := transport.EncodePayload(v)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestUndeclaredNodeFailsAtOnce: a frame naming a node the NodeMap does not
// declare costs no dial retry. A ping from an unknown node leaves the
// connection's reader free for the next frame, and a reply to a call from
// an unknown node returns at once instead of stalling the replier.
func TestUndeclaredNodeFailsAtOnce(t *testing.T) {
	nm := transport.NewNodeMap([]transport.NodeSpec{{Name: "w1", Endpoints: []string{"b"}}})
	n, err := New(Config{Seed: 1, Node: "w1", Nodes: nm})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	got := n.NewSignal()
	n.Spawn("rx", func(p transport.Proc) { got.Resolve(n.Endpoint("b").Recv(p).Payload) })

	c, err := net.Dial("tcp", nm.Addr("w1"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var frames []byte
	frames = append(frames, frame(framePing, wireBody(func(e *transport.WireEnc) { e.U64(1); e.Str("ghost") }))...)
	frames = append(frames, frame(frameMsg, wireBody(func(e *transport.WireEnc) { e.Str("a"); e.Str("b"); e.Blob(payload(t, 7)) }))...)
	if _, err := c.Write(frames); err != nil {
		t.Fatal(err)
	}
	if !n.Drive(got, 2*time.Second) {
		t.Fatal("a ping from an undeclared node stalled the connection's reader")
	}

	start := time.Now()
	(&remoteCall{n: n, node: "ghost", id: 1, from: "cli"}).Reply(1, 8)
	if d := time.Since(start); d > time.Second {
		t.Fatalf("a reply to an undeclared node took %v", d)
	}
}

// TestFrameHeaderAloneAllocatesLittle: a header that declares a maxFrame
// body and is followed by EOF is an error, and the reader allocated what
// arrived, not the 64 MiB the header claimed. A body that does arrive
// past frameAllocOnce is read whole, and smaller ones share the
// connection's buffer.
func TestFrameHeaderAloneAllocatesLittle(t *testing.T) {
	hdr := frame(frameMsg, nil)
	binary.BigEndian.PutUint32(hdr[1:], maxFrame)
	br := bufio.NewReader(bytes.NewReader(hdr))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var buf []byte
	_, _, err := readFrame(br, &buf)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a header with no body read as a frame")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("a bare header cost %d bytes of allocation, want < 1 MiB", n)
	}

	body := bytes.Repeat([]byte{7}, 3*frameAllocOnce+5)
	kind, got, err := readFrame(bufio.NewReader(bytes.NewReader(frame(frameMsg, body))), &buf)
	if err != nil || kind != frameMsg || !bytes.Equal(got, body) {
		t.Fatalf("a %d-byte frame read back as kind %d, %d bytes, err %v", len(body), kind, len(got), err)
	}

	small := bytes.NewReader(append(frame(frameMsg, []byte("first")), frame(framePing, []byte("2nd"))...))
	br = bufio.NewReader(small)
	_, first, err1 := readFrame(br, &buf)
	_, second, err2 := readFrame(br, &buf)
	if err1 != nil || err2 != nil || string(second) != "2nd" || &first[0] != &second[0] {
		t.Fatalf("two small frames: %q then %q (errors %v, %v), want both in the one buffer", first, second, err1, err2)
	}
}

// TestWriteDeadlineOnStalledPeer: a peer that accepts and never reads
// fills the socket, and the write that blocks then fails within
// writeTimeout; the peer is marked down, as for any failed write.
func TestWriteDeadlineOnStalledPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		if c, err := ln.Accept(); err == nil {
			defer c.Close()
			time.Sleep(writeTimeout + 10*time.Second)
		}
	}()
	nm := transport.NewNodeMap([]transport.NodeSpec{{Name: "w1"}, {Name: "stall", Addr: ln.Addr().String()}})
	n, err := New(Config{Seed: 1, Node: "w1", Nodes: nm})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()

	failed := make(chan error, 1)
	go func() {
		body := make([]byte, 1<<20)
		for {
			if err := n.writeFrame("stall", frameMsg, body); err != nil {
				failed <- err
				return
			}
		}
	}()
	select {
	case <-failed:
	case <-time.After(writeTimeout + 5*time.Second):
		t.Fatal("writes to a peer that never reads did not fail")
	}
	n.mu.Lock()
	down := n.down["stall"]
	n.mu.Unlock()
	if !down {
		t.Fatal("the stalled peer was not marked down")
	}
}

// FuzzServeConn feeds arbitrary bytes to one inbound connection's reader:
// whatever the frames, serveConn must not panic and must return once the
// connection closes. The node declares no peer, so a ping's pong fails at
// once rather than dialing.
func FuzzServeConn(f *testing.F) {
	enc := payload(f, 7)
	msg := func(e *transport.WireEnc) { e.Str("a"); e.Str("b"); e.Blob(enc) }
	valid := [][]byte{
		frame(frameHello, wireBody(func(e *transport.WireEnc) { e.Str("peer") })),
		frame(frameMsg, wireBody(msg)),
		frame(frameBurst, wireBody(func(e *transport.WireEnc) { e.U32(2); msg(e); msg(e) })),
		frame(frameCall, wireBody(func(e *transport.WireEnc) {
			e.U64(1)
			e.Str("ghost")
			e.Str("cli")
			e.Str("srv")
			e.Blob(enc)
		})),
		frame(frameReply, wireBody(func(e *transport.WireEnc) { e.U64(1); e.Blob(enc) })),
		frame(framePing, wireBody(func(e *transport.WireEnc) { e.U64(1); e.Str("ghost") })),
		frame(framePong, wireBody(func(e *transport.WireEnc) { e.U64(1) })),
	}
	var all []byte
	for _, v := range valid {
		f.Add(v)
		all = append(all, v...)
	}
	f.Add(all)
	f.Add(valid[2][:len(valid[2])-3])                                                 // truncated body
	f.Add([]byte{frameMsg, 0x04, 0x00, 0x00, 0x01})                                   // length over maxFrame
	f.Add(append(frame(99, []byte{1, 2, 3}), valid[1]...))                            // unknown kind, then a frame
	f.Add(frame(frameBurst, wireBody(func(e *transport.WireEnc) { e.U32(1 << 30) }))) // count over the body
	f.Fuzz(func(t *testing.T, data []byte) {
		core := livenet.New(livenet.Config{Seed: 1})
		defer core.Shutdown()
		n := &Net{
			Net:     core,
			node:    "fz",
			nodes:   transport.NewNodeMap(nil),
			conns:   make(map[string]*wconn),
			inbound: make(map[net.Conn]struct{}),
			down:    make(map[string]bool),
			pings:   make(map[uint64]chan struct{}),
			calls:   make(map[uint64]pendingCall),
		}
		srv, cli := net.Pipe()
		done := make(chan struct{})
		n.wg.Add(1)
		go func() {
			n.serveConn(srv)
			close(done)
		}()
		go func() {
			cli.Write(data) //nolint:errcheck // the reader may close first
			cli.Close()
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("serveConn did not return after its connection closed")
		}
	})
}
