package wsock

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// fakeConn is an in-memory net.Conn: reads come from r, writes land in w.
// Control-frame echoes (pong, close) written while parsing are discarded
// into w so the frame reader can be driven without a real socket.
type fakeConn struct {
	r *bytes.Reader
	w bytes.Buffer
}

func (c *fakeConn) Read(p []byte) (int, error) {
	if c.r == nil {
		return 0, io.EOF
	}
	return c.r.Read(p)
}
func (c *fakeConn) Write(p []byte) (int, error)      { return c.w.Write(p) }
func (c *fakeConn) Close() error                     { return nil }
func (c *fakeConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *fakeConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *fakeConn) SetDeadline(time.Time) error      { return nil }
func (c *fakeConn) SetReadDeadline(time.Time) error  { return nil }
func (c *fakeConn) SetWriteDeadline(time.Time) error { return nil }

// FuzzFrameRoundTrip checks that any payload written by writeFrame — masked
// (client role) or unmasked (server role) — is returned verbatim by ReadText
// on the receiving side.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte(nil), false)
	f.Add([]byte("{}"), true)
	f.Add([]byte("hello broadcast plane"), false)
	f.Add(bytes.Repeat([]byte("x"), 126), true)    // 16-bit length header
	f.Add(bytes.Repeat([]byte("y"), 70000), false) // 64-bit length header
	f.Fuzz(func(t *testing.T, payload []byte, client bool) {
		wire := &fakeConn{}
		sender := &Conn{nc: wire, client: client}
		if err := sender.WriteText(payload); err != nil {
			t.Fatalf("WriteText(%d bytes): %v", len(payload), err)
		}
		rdConn := &fakeConn{r: bytes.NewReader(wire.w.Bytes())}
		receiver := &Conn{nc: rdConn, br: bufio.NewReader(rdConn)}
		got, err := readText(receiver)
		if err != nil {
			t.Fatalf("ReadText after %d-byte write: %v", len(payload), err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round trip mismatch: wrote %d bytes, read %d", len(payload), len(got))
		}
	})
}

// FuzzFrameParse feeds arbitrary bytes to the frame reader: it must never
// panic and must terminate (every path either yields a message or an error —
// including ErrClosed for close frames and EOF for truncated input).
func FuzzFrameParse(f *testing.F) {
	// A valid single text frame, a masked frame, a ping followed by text,
	// a close frame, and headers claiming oversized/truncated payloads.
	f.Add([]byte{0x81, 0x02, 'h', 'i'})
	f.Add([]byte{0x81, 0x82, 1, 2, 3, 4, 'h' ^ 1, 'i' ^ 2})
	f.Add([]byte{0x89, 0x00, 0x81, 0x01, 'x'})
	f.Add([]byte{0x88, 0x00})
	f.Add([]byte{0x81, 0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0x81, 0x7E, 0x10, 0x00, 'a'})
	f.Add([]byte{0x01, 0x01, 'a', 0x80, 0x01, 'b'})
	f.Fuzz(func(t *testing.T, data []byte) {
		wire := &fakeConn{r: bytes.NewReader(data)}
		c := &Conn{nc: wire, br: bufio.NewReader(wire)}
		for {
			msg, err := readText(c)
			if err != nil {
				if errors.Is(err, ErrClosed) && !c.closed {
					t.Fatal("ErrClosed returned without marking the connection closed")
				}
				return
			}
			// A parsed message can be no larger than the input that framed it.
			if len(msg) > len(data) {
				t.Fatalf("message of %d bytes parsed from %d input bytes", len(msg), len(data))
			}
		}
	})
}
