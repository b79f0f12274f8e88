package wsock

import (
	"bufio"
	"crypto/rand"
	"encoding/base64"
	"encoding/binary"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// rawDial performs the client handshake by hand and returns the raw TCP
// connection, so tests can craft arbitrary frames.
func rawDial(t *testing.T, srv *httptest.Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, err := net.Dial("tcp", strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	keyBytes := make([]byte, 16)
	if _, err := rand.Read(keyBytes); err != nil {
		t.Fatal(err)
	}
	key := base64.StdEncoding.EncodeToString(keyBytes)
	req := "GET / HTTP/1.1\r\nHost: x\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n" +
		"Sec-WebSocket-Key: " + key + "\r\nSec-WebSocket-Version: 13\r\n\r\n"
	if _, err := nc.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if strings.TrimRight(line, "\r\n") == "" {
			break
		}
	}
	return nc, br
}

// writeRawFrame writes one masked frame with explicit fin and opcode.
func writeRawFrame(t *testing.T, nc net.Conn, fin bool, opcode byte, payload []byte) {
	t.Helper()
	var hdr []byte
	b0 := opcode
	if fin {
		b0 |= 0x80
	}
	hdr = append(hdr, b0)
	switch {
	case len(payload) < 126:
		hdr = append(hdr, 0x80|byte(len(payload)))
	case len(payload) <= 0xFFFF:
		hdr = append(hdr, 0x80|126)
		var ext [2]byte
		binary.BigEndian.PutUint16(ext[:], uint16(len(payload)))
		hdr = append(hdr, ext[:]...)
	default:
		hdr = append(hdr, 0x80|127)
		var ext [8]byte
		binary.BigEndian.PutUint64(ext[:], uint64(len(payload)))
		hdr = append(hdr, ext[:]...)
	}
	mask := []byte{1, 2, 3, 4}
	hdr = append(hdr, mask...)
	masked := make([]byte, len(payload))
	for i := range payload {
		masked[i] = payload[i] ^ mask[i%4]
	}
	if _, err := nc.Write(append(hdr, masked...)); err != nil {
		t.Fatal(err)
	}
}

// echoOnce starts a server that reads one text message and echoes it back.
func echoOnce(t *testing.T) (*httptest.Server, chan []byte) {
	t.Helper()
	got := make(chan []byte, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := Upgrade(w, r)
		if err != nil {
			return
		}
		msg, err := readText(c)
		if err != nil {
			close(got)
			return
		}
		got <- msg
	}))
	t.Cleanup(srv.Close)
	return srv, got
}

func TestFragmentedMessageAssembled(t *testing.T) {
	srv, got := echoOnce(t)
	nc, _ := rawDial(t, srv)
	// "hello world" split across three fragments: text, continuation,
	// continuation(fin).
	writeRawFrame(t, nc, false, opText, []byte("hel"))
	writeRawFrame(t, nc, false, opContinuation, []byte("lo wo"))
	writeRawFrame(t, nc, true, opContinuation, []byte("rld"))
	select {
	case msg := <-got:
		if string(msg) != "hello world" {
			t.Fatalf("assembled = %q", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server never assembled the message")
	}
}

func TestInterleavedPingDuringFragments(t *testing.T) {
	srv, got := echoOnce(t)
	nc, _ := rawDial(t, srv)
	// Control frames may interleave with a fragmented message (RFC 6455
	// §5.4); the reader must answer the ping and keep assembling.
	writeRawFrame(t, nc, false, opText, []byte("ab"))
	writeRawFrame(t, nc, true, opPing, []byte("beat"))
	writeRawFrame(t, nc, true, opContinuation, []byte("cd"))
	select {
	case msg := <-got:
		if string(msg) != "abcd" {
			t.Fatalf("assembled = %q", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server never assembled the message")
	}
}

func TestContinuationWithoutStartRejected(t *testing.T) {
	srv, got := echoOnce(t)
	nc, _ := rawDial(t, srv)
	writeRawFrame(t, nc, true, opContinuation, []byte("orphan"))
	select {
	case msg, ok := <-got:
		if ok {
			t.Fatalf("server accepted an orphan continuation: %q", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server hung on orphan continuation")
	}
}

func TestNewTextDuringFragmentsRejected(t *testing.T) {
	srv, got := echoOnce(t)
	nc, _ := rawDial(t, srv)
	writeRawFrame(t, nc, false, opText, []byte("ab"))
	writeRawFrame(t, nc, true, opText, []byte("cd")) // protocol violation
	select {
	case msg, ok := <-got:
		if ok {
			t.Fatalf("server accepted interleaved text: %q", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server hung on protocol violation")
	}
}

func TestBinaryFrameRejected(t *testing.T) {
	srv, got := echoOnce(t)
	nc, _ := rawDial(t, srv)
	writeRawFrame(t, nc, true, opBinary, []byte{1, 2, 3})
	select {
	case msg, ok := <-got:
		if ok {
			t.Fatalf("server accepted binary: %q", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server hung on binary frame")
	}
}

func TestRSVBitsRejected(t *testing.T) {
	srv, got := echoOnce(t)
	nc, _ := rawDial(t, srv)
	// Set RSV1 by hand.
	payload := []byte("x")
	hdr := []byte{0x80 | 0x40 | opText, 0x80 | byte(len(payload)), 1, 2, 3, 4}
	masked := []byte{payload[0] ^ 1}
	if _, err := nc.Write(append(hdr, masked...)); err != nil {
		t.Fatal(err)
	}
	select {
	case msg, ok := <-got:
		if ok {
			t.Fatalf("server accepted RSV bits: %q", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server hung on RSV bits")
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	srv, got := echoOnce(t)
	nc, _ := rawDial(t, srv)
	// Declare an absurd 64-bit length without sending the body.
	hdr := []byte{0x80 | opText, 0x80 | 127}
	var ext [8]byte
	binary.BigEndian.PutUint64(ext[:], 1<<40)
	hdr = append(hdr, ext[:]...)
	hdr = append(hdr, 1, 2, 3, 4) // mask
	if _, err := nc.Write(hdr); err != nil {
		t.Fatal(err)
	}
	select {
	case msg, ok := <-got:
		if ok {
			t.Fatalf("server accepted oversize frame: %q", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server hung on oversize frame")
	}
}

// TestMaskingPropertyRoundTrip: arbitrary payload bytes survive the client
// masking + server unmasking path.
func TestMaskingPropertyRoundTrip(t *testing.T) {
	srv, got := echoOnce(t)
	nc, _ := rawDial(t, srv)
	payload := make([]byte, 257)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	writeRawFrame(t, nc, true, opText, payload)
	select {
	case msg := <-got:
		if string(msg) != string(payload) {
			t.Fatalf("payload corrupted through masking")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no echo")
	}
}
