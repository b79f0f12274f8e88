package wsock

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// newFeedConn returns a connection whose reassembly machine can be driven by
// hand with feed — no socket, no poller. Writes (pong and close echoes) land
// in the returned fakeConn's buffer.
func newFeedConn() (*Conn, *fakeConn) {
	wire := &fakeConn{}
	return &Conn{nc: wire}, wire
}

// diffResult captures everything observable about one reader's run over a
// wire stream: delivered messages, bytes written back, terminal error, and
// (feed runs) how many input bytes had been fed when the error surfaced.
type diffResult struct {
	msgs  [][]byte
	wire  []byte
	err   error
	errAt int
}

// leaseReader is what a blocking run drives: the production Conn or the
// reference reader.
type leaseReader interface{ ReadTextLease() ([]byte, error) }

// runLeases reads messages from r until it errors (EOF at the latest).
func runLeases(r leaseReader, wire *fakeConn) diffResult {
	var res diffResult
	for {
		m, err := r.ReadTextLease()
		if err != nil {
			res.err = err
			break
		}
		res.msgs = append(res.msgs, append([]byte(nil), m...))
	}
	res.wire = wire.w.Bytes()
	return res
}

// runBlocking drives the blocking ReadTextLease over data through a bufio
// window, as a reader goroutine on a socket would.
func runBlocking(data []byte) diffResult {
	wire := &fakeConn{r: bytes.NewReader(data)}
	return runLeases(&Conn{nc: wire, br: bufio.NewReader(wire)}, wire)
}

// runReference drives the pre-machine blocking reader (reference_test.go).
func runReference(data []byte) diffResult {
	r, wire := newRefReader(data)
	return runLeases(r, wire)
}

// runPoll drives the reassembly machine over data the way readiness
// dispatches do, in chunks whose sizes come from next (clamped to what
// remains).
func runPoll(data []byte, next func(remaining int) int) diffResult {
	c, wire := newFeedConn()
	var res diffResult
	onMsg := func(m []byte) error {
		res.msgs = append(res.msgs, append([]byte(nil), m...))
		return nil
	}
	p := data
	for len(p) > 0 && res.err == nil {
		n := next(len(p))
		if n < 1 {
			n = 1
		}
		if n > len(p) {
			n = len(p)
		}
		res.err = c.feed(p[:n], onMsg)
		p = p[n:]
		res.errAt = len(data) - len(p)
	}
	res.wire = wire.w.Bytes()
	return res
}

// compareReaders holds a blocking run and a feed run to the differential
// contract: identical messages in order, identical echoed wire bytes, and
// compatible terminal errors — the feed side reporting nothing on a truncated
// stream corresponds to the blocking side's EOF (the socket would simply stay
// parked).
func compareReaders(t *testing.T, label string, b, p diffResult) {
	t.Helper()
	if p.err == nil {
		if b.err != nil && !errors.Is(b.err, io.EOF) && !errors.Is(b.err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s: blocking err %v but poll side saw no error", label, b.err)
		}
	} else if b.err == nil || b.err.Error() != p.err.Error() {
		t.Fatalf("%s: error mismatch: blocking %v, poll %v", label, b.err, p.err)
	}
	if len(b.msgs) != len(p.msgs) {
		t.Fatalf("%s: message count mismatch: blocking %d, poll %d", label, len(b.msgs), len(p.msgs))
	}
	for i := range b.msgs {
		if !bytes.Equal(b.msgs[i], p.msgs[i]) {
			t.Fatalf("%s: message %d differs: blocking %q, poll %q", label, i, b.msgs[i], p.msgs[i])
		}
	}
	if !bytes.Equal(b.wire, p.wire) {
		t.Fatalf("%s: echoed wire bytes differ:\nblocking %x\npoll     %x", label, b.wire, p.wire)
	}
}

// frame hand-assembles one unmasked frame.
func frame(fin bool, opcode byte, payload string) []byte {
	b := []byte{opcode, 0}
	if fin {
		b[0] |= 0x80
	}
	switch {
	case len(payload) < 126:
		b[1] = byte(len(payload))
	case len(payload) <= 0xFFFF:
		b = append(b, 0, 0)
		b[1] = 126
		b[2], b[3] = byte(len(payload)>>8), byte(len(payload))
	default:
		panic("test frame too large")
	}
	return append(b, payload...)
}

// TestFeedByteAtATimeMatchesBlocking dribbles a stream exercising every
// frame shape — small, 16-bit length, masked, fragmented, interleaved
// control, close — one byte per feed and checks the differential contract
// against the blocking reader.
func TestFeedByteAtATimeMatchesBlocking(t *testing.T) {
	// A masked frame written by a real client-role writer.
	mw := &fakeConn{}
	sender := &Conn{nc: mw, client: true}
	if err := sender.WriteText([]byte("masked payload")); err != nil {
		t.Fatal(err)
	}

	var stream []byte
	stream = append(stream, frame(true, opText, "hello")...)
	stream = append(stream, frame(true, opText, strings.Repeat("x", 300))...) // 16-bit length
	stream = append(stream, mw.w.Bytes()...)
	stream = append(stream, frame(false, opText, "frag-")...)
	stream = append(stream, frame(true, opPing, "beat")...)
	stream = append(stream, frame(false, opContinuation, "men")...)
	stream = append(stream, frame(true, opPong, "")...)
	stream = append(stream, frame(true, opContinuation, "ted")...)
	stream = append(stream, frame(true, opText, "")...)
	stream = append(stream, frame(true, opClose, "")...)

	blocking := runBlocking(stream)
	if len(blocking.msgs) != 5 || !errors.Is(blocking.err, ErrClosed) {
		t.Fatalf("blocking baseline broken: %d msgs, err %v", len(blocking.msgs), blocking.err)
	}
	if string(blocking.msgs[3]) != "frag-mented" {
		t.Fatalf("fragment assembly = %q", blocking.msgs[3])
	}
	compareReaders(t, "byte-at-a-time", blocking, runPoll(stream, func(int) int { return 1 }))
	compareReaders(t, "whole-stream", blocking, runPoll(stream, func(r int) int { return r }))
	compareReaders(t, "sevens", blocking, runPoll(stream, func(int) int { return 7 }))
	compareReaders(t, "reference", runReference(stream), runPoll(stream, func(int) int { return 1 }))
}

// TestPollControlFrameInsideFragment is the readiness-path regression for a
// ping arriving between the fragments of a partially-delivered message, with
// the ping itself split across dispatches: the pong must echo immediately
// (before the message completes) and assembly must resume undisturbed.
func TestPollControlFrameInsideFragment(t *testing.T) {
	c, wire := newFeedConn()
	var msgs [][]byte
	onMsg := func(m []byte) error {
		msgs = append(msgs, append([]byte(nil), m...))
		return nil
	}

	var stream []byte
	stream = append(stream, frame(false, opText, "par")...)
	pingAt := len(stream)
	stream = append(stream, frame(true, opPing, "ctl")...)
	pingMid := pingAt + 2 // header delivered, payload still pending
	stream = append(stream, frame(true, opContinuation, "tial")...)

	// First dispatch ends mid-ping: header consumed, payload missing.
	if err := c.feed(stream[:pingMid], onMsg); err != nil {
		t.Fatalf("feed to mid-ping: %v", err)
	}
	if len(msgs) != 0 {
		t.Fatalf("message delivered before its final fragment: %q", msgs)
	}
	if wire.w.Len() != 0 {
		t.Fatalf("pong written before the ping payload completed: %x", wire.w.Bytes())
	}
	// Second dispatch completes the ping: the pong echoes now, mid-message.
	pingEnd := pingAt + 2 + 3
	if err := c.feed(stream[pingMid:pingEnd], onMsg); err != nil {
		t.Fatalf("feed ping payload: %v", err)
	}
	if want := frame(true, opPong, "ctl"); !bytes.Equal(wire.w.Bytes(), want) {
		t.Fatalf("pong = %x, want %x", wire.w.Bytes(), want)
	}
	if len(msgs) != 0 {
		t.Fatalf("message delivered early: %q", msgs)
	}
	// Final dispatch delivers the assembled message.
	if err := c.feed(stream[pingEnd:], onMsg); err != nil {
		t.Fatalf("feed continuation: %v", err)
	}
	if len(msgs) != 1 || string(msgs[0]) != "partial" {
		t.Fatalf("assembled = %q, want one %q", msgs, "partial")
	}
}

// tcpPair returns two ends of a loopback TCP connection.
func tcpPair(t *testing.T) (cli, srv net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	cli, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srv, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { cli.Close(); srv.Close() })
	return cli, srv
}

// pollUntil calls PollRead until cond holds, sleeping between parked polls
// (standing in for the poller's readiness wakeups).
func pollUntil(t *testing.T, c *Conn, scratch []byte, onMsg func([]byte) error, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached by polling")
		}
		more, err := c.PollRead(scratch, onMsg)
		if err != nil {
			t.Fatalf("PollRead: %v", err)
		}
		if !more {
			time.Sleep(time.Millisecond)
		}
	}
}

// TestPollReadRealSocket runs the poll-mode reader against a real TCP socket:
// bytes buffered before the mode switch (the handshake leftovers) are drained
// first, raw non-blocking reads take over, blocking reads are refused, and
// oversized lease buffers shrink once the connection parks.
func TestPollReadRealSocket(t *testing.T) {
	cliNC, srvNC := tcpPair(t)
	cli := &Conn{nc: cliNC, br: bufio.NewReader(cliNC), client: true}
	srv := &Conn{nc: srvNC, br: bufio.NewReader(srvNC)}

	if err := cli.WriteText([]byte("m1")); err != nil {
		t.Fatal(err)
	}
	if err := cli.WriteText([]byte("m2")); err != nil {
		t.Fatal(err)
	}
	// Read m1 the blocking way and wait until at least part of m2 is sitting
	// in the bufio reader — the poll switch must not lose those bytes.
	if m, err := srv.ReadText(); err != nil || string(m) != "m1" {
		t.Fatalf("blocking read before switch = %q, %v", m, err)
	}
	if _, err := srv.br.Peek(1); err != nil {
		t.Fatalf("priming buffered bytes: %v", err)
	}

	if _, err := srv.StartPoll(); err != nil {
		t.Fatalf("StartPoll: %v", err)
	}
	if _, err := srv.ReadTextLease(); err != errPollMode {
		t.Fatalf("blocking read in poll mode err = %v, want errPollMode", err)
	}

	var msgs []string
	onMsg := func(m []byte) error {
		msgs = append(msgs, string(m))
		return nil
	}
	scratch := make([]byte, 32<<10)
	pollUntil(t, srv, scratch, onMsg, func() bool { return len(msgs) >= 1 })
	if msgs[0] != "m2" {
		t.Fatalf("drained message = %q, want m2", msgs[0])
	}
	if srv.br != nil {
		t.Fatal("bufio reader not released after the poll switch drained it")
	}

	// Raw reads now: one small message, then one large enough to grow rbuf
	// past the park threshold.
	big := strings.Repeat("y", 4096)
	if err := cli.WriteText([]byte("m3")); err != nil {
		t.Fatal(err)
	}
	if err := cli.WriteText([]byte(big)); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, srv, scratch, onMsg, func() bool { return len(msgs) >= 3 })
	if msgs[1] != "m3" || msgs[2] != big {
		t.Fatalf("raw-read messages wrong: %q, len %d", msgs[1], len(msgs[2]))
	}
	// The last PollRead that found the socket drained parked the connection;
	// the 4KB data buffer must have been released.
	if _, err := srv.PollRead(scratch, onMsg); err != nil {
		t.Fatal(err)
	}
	if cap(srv.rbuf) > pollIdleDataBufMax {
		t.Fatalf("rbuf cap %d survived parking (max %d)", cap(srv.rbuf), pollIdleDataBufMax)
	}

	// Peer-initiated close: the close frame surfaces as ErrClosed and the
	// OnClose hook fires exactly once.
	fired := 0
	srv.OnClose(func() { fired++ })
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("close frame never surfaced")
		}
		_, err := srv.PollRead(scratch, onMsg)
		if err == nil {
			time.Sleep(time.Millisecond)
			continue
		}
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("PollRead after peer close err = %v, want ErrClosed", err)
		}
		break
	}
	if fired != 1 {
		t.Fatalf("OnClose fired %d times, want 1", fired)
	}
}

// TestOnCloseAfterClose: registering the hook on an already-closed connection
// fires it immediately (the poller registration race), and local Close fires
// a hook registered before it exactly once.
func TestOnCloseAfterClose(t *testing.T) {
	c := &Conn{nc: &fakeConn{}}
	fired := 0
	c.OnClose(func() { fired++ })
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("hook fired %d times after Close, want 1", fired)
	}
	c.Close() // double close must not re-fire
	if fired != 1 {
		t.Fatalf("hook re-fired on double close: %d", fired)
	}

	c2 := &Conn{nc: &fakeConn{}}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	fired2 := 0
	c2.OnClose(func() { fired2++ })
	if fired2 != 1 {
		t.Fatalf("late-registered hook fired %d times, want 1 (immediately)", fired2)
	}
	if !c2.Closed() {
		t.Fatal("Closed() = false after Close")
	}
}

// TestStartPollUnsupported: in-memory conns have no descriptor; the switch
// must fail cleanly and leave blocking reads working.
func TestStartPollUnsupported(t *testing.T) {
	wire := &fakeConn{r: bytes.NewReader(frame(true, opText, "ok"))}
	c := &Conn{nc: wire, br: bufio.NewReader(wire)}
	if _, err := c.StartPoll(); !errors.Is(err, ErrPollUnsupported) {
		t.Fatalf("StartPoll on fakeConn err = %v, want ErrPollUnsupported", err)
	}
	if m, err := c.ReadText(); err != nil || string(m) != "ok" {
		t.Fatalf("blocking read after failed switch = %q, %v", m, err)
	}
}

// FuzzFrameReassembly holds the one parser to its spec on any byte stream:
// (a) chunking invariance — delivered whole, byte-at-a-time and in seeded
// random splits it yields identical messages, echoed wire bytes and terminal
// error; (b) it equals the reference reader (reference_test.go), truncation
// surfacing as EOF there and as a parked connection here — except that it
// stops at the first control frame violating RFC 6455 §5.5, which the
// reference accepts: there the offending header is checked by hand and the
// reference must agree on everything before it; (c) the blocking
// ReadTextLease over a bufio window equals feed.
func FuzzFrameReassembly(f *testing.F) {
	f.Add([]byte{0x81, 0x02, 'h', 'i'}, uint64(1))
	f.Add([]byte{0x81, 0x82, 1, 2, 3, 4, 'h' ^ 1, 'i' ^ 2}, uint64(2))
	f.Add([]byte{0x01, 0x03, 'p', 'a', 'r', 0x89, 0x01, 'x', 0x80, 0x04, 't', 'i', 'a', 'l'}, uint64(3))
	f.Add([]byte{0x89, 0x00, 0x81, 0x01, 'x', 0x88, 0x00}, uint64(4))
	f.Add([]byte{0x81, 0x7E, 0x01, 0x2C}, uint64(5))
	f.Add([]byte{0x81, 0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint64(6))
	f.Add([]byte{0x91, 0x01, 'z'}, uint64(7))
	f.Add(append([]byte{0x81, 0x7E, 0x01, 0x2C}, bytes.Repeat([]byte("w"), 300)...), uint64(8))
	for i, tc := range controlLimitCases {
		f.Add(tc.wire(false), uint64(9+i))
	}
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		whole := runPoll(data, func(r int) int { return r })
		bytewise := runPoll(data, func(int) int { return 1 })
		rng := seed | 1
		random := runPoll(data, func(int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int((rng>>33)%17) + 1
		})
		requireSameRun(t, "byte-at-a-time", whole, bytewise)
		requireSameRun(t, "random-splits", whole, random)

		if whole.err == errFragmentedControl || whole.err == errControlTooLong {
			// Byte-at-a-time, the error surfaces on the header's second byte.
			h0, h1 := data[bytewise.errAt-2], data[bytewise.errAt-1]
			if h0&0x0F < opClose || (h0&0x80 != 0 && h1&0x7F <= maxControl) {
				t.Fatalf("%v reported for header %02x %02x, which RFC 6455 §5.5 allows", whole.err, h0, h1)
			}
			accepted := whole
			accepted.err = nil
			compareReaders(t, "reference-before-violation", runReference(data[:bytewise.errAt-2]), accepted)
		} else {
			compareReaders(t, "reference", runReference(data), whole)
		}
		compareReaders(t, "bufio-window", runBlocking(data), whole)
	})
}

// requireSameRun is chunking invariance: two feed runs over one stream agree
// on everything observable.
func requireSameRun(t *testing.T, label string, a, b diffResult) {
	t.Helper()
	if (a.err == nil) != (b.err == nil) || (a.err != nil && a.err.Error() != b.err.Error()) {
		t.Fatalf("%s: terminal error depends on chunking: %v vs %v", label, a.err, b.err)
	}
	if len(a.msgs) != len(b.msgs) {
		t.Fatalf("%s: message count depends on chunking: %d vs %d", label, len(a.msgs), len(b.msgs))
	}
	for i := range a.msgs {
		if !bytes.Equal(a.msgs[i], b.msgs[i]) {
			t.Fatalf("%s: message %d depends on chunking: %q vs %q", label, i, a.msgs[i], b.msgs[i])
		}
	}
	if !bytes.Equal(a.wire, b.wire) {
		t.Fatalf("%s: echoed wire bytes depend on chunking:\n%x\n%x", label, a.wire, b.wire)
	}
}
