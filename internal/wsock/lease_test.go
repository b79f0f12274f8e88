package wsock

import (
	"bufio"
	"bytes"
	"errors"
	"testing"
)

// countingConn wraps fakeConn and counts Write calls, so tests can prove
// single-write frame emission.
type countingConn struct {
	fakeConn
	writes int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.fakeConn.Write(p)
}

// pair returns a sender writing into an in-memory wire and a function that
// finalizes the wire into a receiver connection.
func pair(client bool) (*Conn, *countingConn, func() *Conn) {
	wire := &countingConn{}
	sender := &Conn{nc: wire, client: client}
	return sender, wire, func() *Conn {
		rd := &fakeConn{r: bytes.NewReader(wire.w.Bytes())}
		return &Conn{nc: rd, br: bufio.NewReader(rd)}
	}
}

// TestSingleWriteFrameEmission: every frame — small, 16-bit extended, 64-bit
// extended, masked or not — goes out in exactly one Write call.
func TestSingleWriteFrameEmission(t *testing.T) {
	for _, client := range []bool{false, true} {
		for _, size := range []int{0, 1, 125, 126, 65535, 65536, 1 << 18} {
			sender, wire, _ := pair(client)
			payload := bytes.Repeat([]byte("q"), size)
			if err := sender.WriteText(payload); err != nil {
				t.Fatalf("client=%v size=%d: %v", client, size, err)
			}
			if wire.writes != 1 {
				t.Errorf("client=%v size=%d: frame used %d writes, want 1", client, size, wire.writes)
			}
		}
	}
}

// TestExtendedLengthRoundTrip: payloads straddling the 126 and 65536 header
// boundaries survive the pooled single-write path in both roles.
func TestExtendedLengthRoundTrip(t *testing.T) {
	for _, client := range []bool{false, true} {
		for _, size := range []int{0, 125, 126, 127, 65535, 65536, 1 << 18} {
			sender, _, recv := pair(client)
			payload := make([]byte, size)
			for i := range payload {
				payload[i] = byte(i * 131)
			}
			if err := sender.WriteText(payload); err != nil {
				t.Fatalf("client=%v size=%d: write: %v", client, size, err)
			}
			got, err := recv().ReadTextLease()
			if err != nil {
				t.Fatalf("client=%v size=%d: read: %v", client, size, err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("client=%v size=%d: payload corrupted", client, size)
			}
		}
	}
}

// TestClientMasksDiffer: the buffered mask source must still produce a fresh
// mask per frame (RFC 6455 §5.3 requires unpredictable masks; identical
// masks across frames would be an immediate tell that pooling broke it).
func TestClientMasksDiffer(t *testing.T) {
	sender, wire, _ := pair(true)
	const frames = 8
	for i := 0; i < frames; i++ {
		if err := sender.WriteText([]byte("same payload")); err != nil {
			t.Fatal(err)
		}
	}
	raw := wire.w.Bytes()
	frameLen := 2 + 4 + len("same payload")
	masks := make(map[[4]byte]bool)
	for i := 0; i < frames; i++ {
		var m [4]byte
		copy(m[:], raw[i*frameLen+2:])
		masks[m] = true
	}
	if len(masks) < 2 {
		t.Fatalf("all %d frames used the same mask", frames)
	}
}

// TestLeaseInvalidatedByNextRead: the buffer handed out by ReadTextLease is
// reused by the next read — retaining it observes the next message's bytes.
// (This documents the lease contract rather than desirable behavior per se;
// ReadText is the copying API for callers that retain.)
func TestLeaseInvalidatedByNextRead(t *testing.T) {
	sender, _, recv := pair(false)
	if err := sender.WriteText([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := sender.WriteText([]byte("burst")); err != nil {
		t.Fatal(err)
	}
	r := recv()
	lease, err := r.ReadTextLease()
	if err != nil {
		t.Fatal(err)
	}
	if string(lease) != "first" {
		t.Fatalf("first lease = %q", lease)
	}
	if _, err := r.ReadTextLease(); err != nil {
		t.Fatal(err)
	}
	// Same length, same backing buffer: the old lease now shows new bytes.
	if string(lease) != "burst" {
		t.Fatalf("lease not backed by the reused buffer: %q", lease)
	}
}

// TestPingMidFragmentLease: a ping interleaved inside a fragmented message
// must be answered from the control buffer without disturbing the data being
// assembled in the read buffer.
func TestPingMidFragmentLease(t *testing.T) {
	wireFrom := func(build func(s *Conn)) *Conn {
		wire := &fakeConn{}
		s := &Conn{nc: wire}
		build(s)
		rd := &fakeConn{r: bytes.NewReader(wire.w.Bytes())}
		return &Conn{nc: rd, br: bufio.NewReader(rd)}
	}
	r := wireFrom(func(s *Conn) {
		// text(fin=0) "hel" · ping "PINGPAYLOAD" · continuation(fin=1) "lo"
		mustWriteRaw(s, false, opText, []byte("hel"))
		mustWriteRaw(s, true, opPing, []byte("PINGPAYLOAD"))
		mustWriteRaw(s, true, opContinuation, []byte("lo"))
	})
	got, err := r.ReadTextLease()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("assembled = %q, want \"hello\" (ping corrupted reassembly)", got)
	}
	// The pong must have echoed the ping payload.
	pong := r.nc.(*fakeConn).w.Bytes()
	if len(pong) < 2 || pong[0] != 0x80|opPong || string(pong[2:]) != "PINGPAYLOAD" {
		t.Fatalf("pong frame = %x", pong)
	}
}

// mustWriteRaw emits one unmasked frame with explicit fin/opcode through the
// sender's pooled write path (writeFrame always sets FIN, so fragments are
// crafted by hand here).
func mustWriteRaw(s *Conn, fin bool, opcode byte, payload []byte) {
	b0 := opcode
	if fin {
		b0 |= 0x80
	}
	hdr := []byte{b0, byte(len(payload))}
	if _, err := s.nc.Write(append(hdr, payload...)); err != nil {
		panic(err)
	}
}

// TestTryReadTextLeaseBatching: with several complete frames buffered, Try
// drains them without blocking; when the buffer is empty it reports not
// ready instead of touching the connection.
func TestTryReadTextLeaseBatching(t *testing.T) {
	sender, wire, _ := pair(false)
	for _, m := range []string{"m1", "m2", "m3"} {
		if err := sender.WriteText([]byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	rd := &fakeConn{r: bytes.NewReader(wire.w.Bytes())}
	r := &Conn{nc: rd, br: bufio.NewReader(rd)}
	// Blocking read pulls everything into the bufio buffer.
	first, err := r.ReadTextLease()
	if err != nil || string(first) != "m1" {
		t.Fatalf("first = %q, %v", first, err)
	}
	for _, want := range []string{"m2", "m3"} {
		got, ok, err := r.TryReadTextLease()
		if err != nil || !ok {
			t.Fatalf("try(%s): ok=%v err=%v", want, ok, err)
		}
		if string(got) != want {
			t.Fatalf("try = %q, want %q", got, want)
		}
	}
	if _, ok, err := r.TryReadTextLease(); ok || err != nil {
		t.Fatalf("empty try: ok=%v err=%v", ok, err)
	}
}

// TestTryReadTextLeaseControlFrames: buffered pings are answered and a
// buffered close completes the handshake, all without blocking.
func TestTryReadTextLeaseControlFrames(t *testing.T) {
	wire := &fakeConn{}
	s := &Conn{nc: wire}
	mustWriteRaw(s, true, opText, []byte("hi"))
	mustWriteRaw(s, true, opPing, []byte("hb"))
	mustWriteRaw(s, true, opText, []byte("yo"))
	mustWriteRaw(s, true, opClose, nil)
	rd := &fakeConn{r: bytes.NewReader(wire.w.Bytes())}
	r := &Conn{nc: rd, br: bufio.NewReader(rd)}
	if first, err := r.ReadTextLease(); err != nil || string(first) != "hi" {
		t.Fatalf("first = %q, %v", first, err)
	}
	got, ok, err := r.TryReadTextLease()
	if err != nil || !ok || string(got) != "yo" {
		t.Fatalf("try across ping: %q ok=%v err=%v", got, ok, err)
	}
	pong := rd.w.Bytes()
	if len(pong) < 2 || pong[0] != 0x80|opPong {
		t.Fatalf("ping not answered: %x", pong)
	}
	if _, ok, err := r.TryReadTextLease(); ok || !errors.Is(err, ErrClosed) {
		t.Fatalf("close via try: ok=%v err=%v", ok, err)
	}
}

// TestWriteTextAllocs: the pooled single-write path is allocation-free in
// steady state, in both roles (the client side includes masking and the
// buffered rand source).
func TestWriteTextAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte("z"), 200)
	for _, client := range []bool{false, true} {
		wire := &fakeConn{}
		c := &Conn{nc: wire, client: client}
		if err := c.WriteText(payload); err != nil { // warm the pooled buffer
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			wire.w.Reset()
			if err := c.WriteText(payload); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("client=%v: WriteText allocs/op = %v, want 0", client, allocs)
		}
	}
}

// TestReadTextLeaseAllocs: steady-state message reads — including answering
// interleaved pings — allocate nothing.
func TestReadTextLeaseAllocs(t *testing.T) {
	wire := &fakeConn{}
	s := &Conn{nc: wire}
	const rounds = 220
	for i := 0; i < rounds; i++ {
		mustWriteRaw(s, true, opPing, []byte("hb"))
		mustWriteRaw(s, true, opText, bytes.Repeat([]byte("p"), 64))
	}
	rd := &fakeConn{r: bytes.NewReader(wire.w.Bytes())}
	r := &Conn{nc: rd, br: bufio.NewReaderSize(rd, 1<<16)}
	if _, err := r.ReadTextLease(); err != nil { // warm rbuf/cbuf/wbuf
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		rd.w.Reset() // discard pongs so the sink doesn't grow
		if _, err := r.ReadTextLease(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ReadTextLease allocs/op = %v, want 0", allocs)
	}
}
