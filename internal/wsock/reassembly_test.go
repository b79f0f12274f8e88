package wsock

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// controlLimitCase is one control frame at RFC 6455 §5.5's limits: a control
// frame must be FIN and carry at most 125 bytes.
type controlLimitCase struct {
	name    string
	h0      byte   // FIN/opcode byte
	len7    byte   // the 7-bit length field (126/127 select an extended form)
	ext     []byte // extended length bytes, if any
	payload int    // payload bytes actually on the wire
	want    error  // nil: accepted
}

var controlLimitCases = []controlLimitCase{
	{name: "ping-125", h0: 0x80 | opPing, len7: 125, payload: 125},
	{name: "ping-126", h0: 0x80 | opPing, len7: 126, ext: []byte{0x00, 0x7E}, payload: 126, want: errControlTooLong},
	{name: "ping-64MiB-announced", h0: 0x80 | opPing, len7: 127, ext: []byte{0, 0, 0, 0, 0x04, 0, 0, 0}, want: errControlTooLong},
	{name: "ping-not-fin", h0: opPing, len7: 2, payload: 2, want: errFragmentedControl},
	{name: "close-not-fin", h0: opClose, len7: 0, want: errFragmentedControl},
}

// wire assembles the case's frame followed by a small text message, so an
// accepted control frame shows the stream carrying on behind it.
func (tc controlLimitCase) wire(masked bool) []byte {
	mask := [4]byte{0xA1, 0xB2, 0xC3, 0xD4}
	one := func(h0, len7 byte, ext []byte, payload []byte) []byte {
		b := append([]byte{h0, len7}, ext...)
		if !masked {
			return append(b, payload...)
		}
		b[1] |= 0x80
		b = append(b, mask[:]...)
		for i, v := range payload {
			b = append(b, v^mask[i%4])
		}
		return b
	}
	b := one(tc.h0, tc.len7, tc.ext, bytes.Repeat([]byte("c"), tc.payload))
	return append(b, one(0x80|opText, 2, nil, []byte("ok"))...)
}

// TestControlFrameLimits: §5.5 violations are refused from the two fixed
// header bytes alone — before any payload byte is buffered or echoed — in
// both read modes, masked or not; a 125-byte ping is answered as before.
func TestControlFrameLimits(t *testing.T) {
	for _, tc := range controlLimitCases {
		for _, masked := range []bool{false, true} {
			name := tc.name
			if masked {
				name += "-masked"
			}
			t.Run(name, func(t *testing.T) {
				data := tc.wire(masked)
				for label, res := range map[string]diffResult{
					"feed-whole":    runPoll(data, func(r int) int { return r }),
					"feed-bytewise": runPoll(data, func(int) int { return 1 }),
					"blocking":      runBlocking(data),
				} {
					if tc.want == nil {
						if len(res.msgs) != 1 || string(res.msgs[0]) != "ok" {
							t.Fatalf("%s: messages after an allowed ping = %q (err %v)", label, res.msgs, res.err)
						}
						if want := frame(true, opPong, strings.Repeat("c", tc.payload)); !bytes.Equal(res.wire, want) {
							t.Fatalf("%s: pong = %x, want %x", label, res.wire, want)
						}
						continue
					}
					if res.err != tc.want {
						t.Fatalf("%s: err = %v, want %v", label, res.err, tc.want)
					}
					if len(res.msgs) != 0 || len(res.wire) != 0 {
						t.Fatalf("%s: %d messages and %d echoed bytes past a refused control frame", label, len(res.msgs), len(res.wire))
					}
				}
				if tc.want == nil {
					return
				}
				// The header alone is enough, and nothing was sized for the payload.
				c, _ := newFeedConn()
				if err := c.feed(data[:2], func([]byte) error { return nil }); err != tc.want {
					t.Fatalf("two header bytes: err = %v, want %v", err, tc.want)
				}
				if cap(c.cbuf) != 0 {
					t.Fatalf("cbuf grown to %d bytes for a refused control frame", cap(c.cbuf))
				}
			})
		}
	}
}

// chunkConn is a fakeConn whose reads return one prepared chunk each, so a
// test decides exactly what a bufio window fill sees.
type chunkConn struct {
	fakeConn
	chunks [][]byte
	reads  int
}

func (c *chunkConn) Read(p []byte) (int, error) {
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	c.reads++
	n := copy(p, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}

func chunkReader(chunks ...[]byte) (*Conn, *chunkConn) {
	nc := &chunkConn{chunks: chunks}
	return &Conn{nc: nc, br: bufio.NewReader(nc)}, nc
}

// TestTryReadFragmentedAndPingBetweenMessages: with everything buffered, Try
// delivers a fragmented message (the old reader deferred it to a blocking
// read) and answers a ping sitting between two messages on its way to the
// second.
func TestTryReadFragmentedAndPingBetweenMessages(t *testing.T) {
	var stream []byte
	stream = append(stream, frame(true, opText, "first")...)
	stream = append(stream, frame(false, opText, "frag")...)
	stream = append(stream, frame(false, opContinuation, "men")...)
	stream = append(stream, frame(true, opContinuation, "ted")...)
	stream = append(stream, frame(true, opPing, "hb")...)
	stream = append(stream, frame(true, opText, "last")...)
	c, nc := chunkReader(stream)
	if m, err := c.ReadTextLease(); err != nil || string(m) != "first" {
		t.Fatalf("first = %q, %v", m, err)
	}
	m, ok, err := c.TryReadTextLease()
	if err != nil || !ok || string(m) != "fragmented" {
		t.Fatalf("buffered fragmented message: %q ok=%v err=%v", m, ok, err)
	}
	if nc.w.Len() != 0 {
		t.Fatalf("ping answered before the reader reached it: %x", nc.w.Bytes())
	}
	m, ok, err = c.TryReadTextLease()
	if err != nil || !ok || string(m) != "last" {
		t.Fatalf("message behind the ping: %q ok=%v err=%v", m, ok, err)
	}
	if want := frame(true, opPong, "hb"); !bytes.Equal(nc.w.Bytes(), want) {
		t.Fatalf("pong = %x, want %x", nc.w.Bytes(), want)
	}
	if _, ok, err := c.TryReadTextLease(); ok || err != nil {
		t.Fatalf("drained window: ok=%v err=%v", ok, err)
	}
	if nc.reads != 1 {
		t.Fatalf("Try touched the connection: %d reads, want 1", nc.reads)
	}
}

// TestReadTextLeaseSpansWindowFills: a message several times the bufio window
// is assembled across fills, resuming mid-payload each time.
func TestReadTextLeaseSpansWindowFills(t *testing.T) {
	body := make([]byte, 10<<10)
	for i := range body {
		body[i] = byte('a' + i%23)
	}
	sender, wire, _ := pair(true) // masked: the rolling mask offset spans fills too
	if err := sender.WriteText(body); err != nil {
		t.Fatal(err)
	}
	if err := sender.WriteText([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	c, nc := chunkReader(wire.w.Bytes())
	got, err := c.ReadTextLease()
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("10 KiB message: %d bytes, err %v", len(got), err)
	}
	if nc.reads < 3 {
		t.Fatalf("message arrived in %d window fills, want >= 3", nc.reads)
	}
	if m, err := c.ReadTextLease(); err != nil || string(m) != "tail" {
		t.Fatalf("message after it = %q, %v", m, err)
	}
}

// TestLeaseLivesUntilNextTextFrame: message k's lease is intact while control
// frames pass and expires exactly when message k+1's first frame starts — the
// same place in both read modes.
func TestLeaseLivesUntilNextTextFrame(t *testing.T) {
	k, ping, next := frame(true, opText, "message-k"), frame(true, opPing, "hb"), frame(true, opText, "message-n")

	t.Run("blocking", func(t *testing.T) {
		c, nc := chunkReader(k, ping, next)
		lease, err := c.ReadTextLease()
		if err != nil || string(lease) != "message-k" {
			t.Fatalf("k = %q, %v", lease, err)
		}
		if _, err := c.br.Peek(1); err != nil { // pull the ping into the window
			t.Fatal(err)
		}
		if _, ok, err := c.TryReadTextLease(); ok || err != nil {
			t.Fatalf("ping only: ok=%v err=%v", ok, err)
		}
		if nc.w.Len() == 0 {
			t.Fatal("ping not answered")
		}
		if string(lease) != "message-k" {
			t.Fatalf("lease clobbered by a control frame: %q", lease)
		}
		if m, err := c.ReadTextLease(); err != nil || string(m) != "message-n" {
			t.Fatalf("k+1 = %q, %v", m, err)
		}
		if string(lease) != "message-n" {
			t.Fatalf("lease not reused by message k+1: %q", lease)
		}
	})

	t.Run("feed", func(t *testing.T) {
		c, wire := newFeedConn()
		var lease []byte
		keep := func(m []byte) error { lease = m; return nil }
		if err := c.feed(k, keep); err != nil || string(lease) != "message-k" {
			t.Fatalf("k = %q, %v", lease, err)
		}
		// A ping, then k+1's header: the text frame has started only once its
		// header is complete.
		short := frame(true, opText, "next")
		if err := c.feed(append(ping, short[0]), keep); err != nil {
			t.Fatal(err)
		}
		if wire.w.Len() == 0 {
			t.Fatal("ping not answered")
		}
		if string(lease) != "message-k" || len(c.rbuf) != len("message-k") {
			t.Fatalf("lease expired before the next text frame started: %q (rbuf %d bytes)", lease, len(c.rbuf))
		}
		old := lease
		if err := c.feed(short[1:2], keep); err != nil {
			t.Fatal(err)
		}
		if len(c.rbuf) != len("next") {
			t.Fatalf("rbuf holds %d bytes once the next text frame has started, want %d", len(c.rbuf), len("next"))
		}
		if err := c.feed(short[2:], keep); err != nil || string(lease) != "next" {
			t.Fatalf("k+1 = %q, %v", lease, err)
		}
		if string(old[:4]) != "next" {
			t.Fatalf("message k+1 did not reuse the expired lease's bytes: %q", old)
		}
	})
}

// TestPollSwitchMidFrame: a frame the blocking side had half consumed from
// the bufio window when the connection switched to poll mode resumes where it
// stopped — a state the two-parser design could not be in.
func TestPollSwitchMidFrame(t *testing.T) {
	cliNC, srvNC := tcpPair(t)
	srv := &Conn{nc: srvNC, br: bufio.NewReader(srvNC)}

	m2 := frame(true, opText, strings.Repeat("z", 300)) // 16-bit length form
	half := len(m2) / 2
	if _, err := cliNC.Write(append(frame(true, opText, "m1"), m2[:half]...)); err != nil {
		t.Fatal(err)
	}
	if m, err := srv.ReadTextLease(); err != nil || string(m) != "m1" {
		t.Fatalf("m1 = %q, %v", m, err)
	}
	if _, err := srv.br.Peek(half); err != nil { // the half frame is in the window
		t.Fatal(err)
	}
	if _, ok, err := srv.TryReadTextLease(); ok || err != nil {
		t.Fatalf("half a frame: ok=%v err=%v", ok, err)
	}
	if srv.br.Buffered() != 0 || srv.rd.idle() {
		t.Fatalf("half frame not consumed into the machine: %d buffered, idle=%v", srv.br.Buffered(), srv.rd.idle())
	}
	if _, err := srv.StartPoll(); err != nil {
		t.Fatalf("StartPoll: %v", err)
	}
	if _, err := cliNC.Write(m2[half:]); err != nil {
		t.Fatal(err)
	}
	var msgs []string
	onMsg := func(m []byte) error { msgs = append(msgs, string(m)); return nil }
	pollUntil(t, srv, make([]byte, 4096), onMsg, func() bool { return len(msgs) >= 1 })
	if msgs[0] != strings.Repeat("z", 300) {
		t.Fatalf("resumed message = %d bytes %q…", len(msgs[0]), msgs[0][:8])
	}
	if _, err := srv.ReadTextLease(); !errors.Is(err, errPollMode) {
		t.Fatalf("blocking read after the switch err = %v, want errPollMode", err)
	}
}
