package wsock

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
)

// captureWrite runs write against a connection of the given role and returns
// the raw bytes it put on the wire.
func captureWrite(t *testing.T, client bool, write func(c *Conn) error) []byte {
	t.Helper()
	a, b := net.Pipe()
	c := &Conn{nc: a, br: bufio.NewReader(a), client: client}
	errc := make(chan error, 1)
	go func() {
		errc <- write(c)
		a.Close()
	}()
	got, _ := io.ReadAll(b) // the close error after a.Close() is expected
	if err := <-errc; err != nil {
		t.Fatalf("write: %v", err)
	}
	return got
}

// TestPreparedFrameBytesIdentical checks the tentpole guarantee: the cached
// frame a server broadcasts via WritePrepared is byte-for-byte what
// per-connection WriteText framing would have produced, across all three
// RFC 6455 payload-length encodings.
func TestPreparedFrameBytesIdentical(t *testing.T) {
	for _, size := range []int{0, 5, 125, 126, 65535, 65536} {
		payload := []byte(strings.Repeat("x", size))
		plain := captureWrite(t, false, func(c *Conn) error { return c.WriteText(payload) })
		prep := NewPreparedText(payload)
		shared := captureWrite(t, false, func(c *Conn) error { return c.WritePrepared(prep) })
		if !bytes.Equal(plain, shared) {
			t.Fatalf("size %d: prepared frame differs from WriteText framing\n got %d bytes\nwant %d bytes",
				size, len(shared), len(plain))
		}
		// The same Prepared written again must reuse the cached frame and
		// still produce identical bytes (it is shared across N clients).
		again := captureWrite(t, false, func(c *Conn) error { return c.WritePrepared(prep) })
		if !bytes.Equal(plain, again) {
			t.Fatalf("size %d: second prepared write differs", size)
		}
	}
}

// TestPreparedClientMasks checks the client fallback: RFC 6455 forbids
// sharing unmasked frames from a client, so WritePrepared on a client
// connection re-frames with a fresh mask and the server side still reads the
// exact payload.
func TestPreparedClientMasks(t *testing.T) {
	a, b := net.Pipe()
	cli := &Conn{nc: a, br: bufio.NewReader(a), client: true}
	srv := &Conn{nc: b, br: bufio.NewReader(b)}
	payload := []byte(`{"type":2,"row":"a-1"}`)
	errc := make(chan error, 1)
	go func() { errc <- cli.WritePrepared(NewPreparedText(payload)) }()
	got, err := readText(srv)
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if werr := <-errc; werr != nil {
		t.Fatalf("WritePrepared: %v", werr)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload = %q, want %q", got, payload)
	}
	a.Close()
	b.Close()
}
