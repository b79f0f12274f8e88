// Package wsock is a minimal RFC 6455 WebSocket implementation built only on
// the standard library — the stand-in for the Socket.IO layer the paper's
// back-end server used (§3.3). It supports the handshake (server upgrade and
// client dial), text frames with fragmentation, client-to-server masking,
// ping/pong, and the closing handshake. Exactly what a broadcast hub needs;
// nothing more.
package wsock

import (
	"bufio"
	"crypto/rand"
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strings"
	gosync "sync"
	"time"
)

// guid is the fixed RFC 6455 handshake GUID.
const guid = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// Frame opcodes.
const (
	opContinuation = 0x0
	opText         = 0x1
	opBinary       = 0x2
	opClose        = 0x8
	opPing         = 0x9
	opPong         = 0xA
)

// ErrClosed is returned when reading from a connection after the closing
// handshake.
var ErrClosed = errors.New("wsock: connection closed")

// Conn is one WebSocket connection.
//
// Buffer ownership: the read side assembles every text message into rbuf,
// which ReadTextLease hands to the caller as a lease — valid only until the
// next ReadText/ReadTextLease/TryReadTextLease call on this connection
// (the bytes are reused once the next text message's first frame arrives).
// Control-frame payloads land in the separate cbuf, so a ping interleaved
// with a fragmented message can never clobber the partially-assembled data
// (RFC 6455 §5.4 allows that interleaving). The write side assembles
// header+payload into wbuf under wmu and emits each frame with a single
// Write. All buffers start nil and grow lazily, so a zero Conn with just nc
// (and br for readers) works — the fuzz harness relies on that.
type Conn struct {
	nc     net.Conn
	br     *bufio.Reader
	client bool // client connections mask outgoing frames

	// Read-side state; owned by the single reader — the blocking reader
	// goroutine, or whichever poller worker the connection is dispatched to.
	rbuf []byte     // reusable message-assembly buffer, leased to the caller
	cbuf []byte     // control-frame payload buffer (ping/pong/close)
	rd   reassembly // the frame parser's state between inputs (reassembly.go)

	wmu    gosync.Mutex
	closed bool
	wbuf   []byte // frame-assembly buffer: header + (masked) payload
	// maskPool buffers crypto/rand output so client connections draw a
	// 4-byte frame mask without a syscall per frame.
	maskPool  [256]byte
	maskAvail int

	// stats, when non-nil, receives wire-level metrics; statShard is this
	// connection's stable shard index (see stats.go). Set before traffic,
	// read by both the reader goroutine and writers.
	stats     *Stats
	statShard uint32

	// poll, when non-nil, is the raw non-blocking socket reader of a
	// connection switched into readiness-driven read mode (see poll.go).
	poll *pollReader

	// onClose, registered via OnClose and guarded by wmu, runs exactly once
	// (onCloseOnce) when the connection closes from either side; the read
	// plane uses it to reap poller state for locally-closed descriptors.
	onClose     func()
	onCloseOnce gosync.Once
}

// AcceptKey computes the Sec-WebSocket-Accept value for a handshake key.
func AcceptKey(key string) string {
	h := sha1.Sum([]byte(key + guid))
	return base64.StdEncoding.EncodeToString(h[:])
}

// Upgrade performs the server side of the WebSocket handshake on an HTTP
// request and returns the connection. The ResponseWriter must support
// hijacking.
func Upgrade(w http.ResponseWriter, r *http.Request) (*Conn, error) {
	if r.Method != http.MethodGet {
		http.Error(w, "websocket: method must be GET", http.StatusMethodNotAllowed)
		return nil, errors.New("wsock: method not GET")
	}
	if !headerContainsToken(r.Header, "Connection", "upgrade") ||
		!strings.EqualFold(r.Header.Get("Upgrade"), "websocket") {
		http.Error(w, "websocket: not an upgrade request", http.StatusBadRequest)
		return nil, errors.New("wsock: missing upgrade headers")
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		http.Error(w, "websocket: missing Sec-WebSocket-Key", http.StatusBadRequest)
		return nil, errors.New("wsock: missing key")
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "websocket: hijacking unsupported", http.StatusInternalServerError)
		return nil, errors.New("wsock: response writer cannot hijack")
	}
	nc, rw, err := hj.Hijack()
	if err != nil {
		return nil, fmt.Errorf("wsock: hijack: %w", err)
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + AcceptKey(key) + "\r\n\r\n"
	if _, err := rw.WriteString(resp); err != nil {
		nc.Close()
		return nil, fmt.Errorf("wsock: write handshake: %w", err)
	}
	if err := rw.Flush(); err != nil {
		nc.Close()
		return nil, fmt.Errorf("wsock: flush handshake: %w", err)
	}
	return &Conn{nc: nc, br: rw.Reader}, nil
}

func headerContainsToken(h http.Header, name, token string) bool {
	for _, v := range h.Values(name) {
		for _, part := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(part), token) {
				return true
			}
		}
	}
	return false
}

// Dial opens a client WebSocket connection to a ws:// URL.
func Dial(rawURL string) (*Conn, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("wsock: parse url: %w", err)
	}
	if u.Scheme != "ws" {
		return nil, fmt.Errorf("wsock: unsupported scheme %q (only ws://)", u.Scheme)
	}
	host := u.Host
	if u.Port() == "" {
		host = net.JoinHostPort(u.Hostname(), "80")
	}
	nc, err := net.Dial("tcp", host)
	if err != nil {
		return nil, fmt.Errorf("wsock: dial: %w", err)
	}
	keyBytes := make([]byte, 16)
	if _, err := rand.Read(keyBytes); err != nil {
		nc.Close()
		return nil, fmt.Errorf("wsock: nonce: %w", err)
	}
	key := base64.StdEncoding.EncodeToString(keyBytes)
	path := u.RequestURI()
	if path == "" {
		path = "/"
	}
	req := "GET " + path + " HTTP/1.1\r\n" +
		"Host: " + u.Host + "\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Key: " + key + "\r\n" +
		"Sec-WebSocket-Version: 13\r\n\r\n"
	if _, err := nc.Write([]byte(req)); err != nil {
		nc.Close()
		return nil, fmt.Errorf("wsock: write handshake: %w", err)
	}
	br := bufio.NewReader(nc)
	status, err := br.ReadString('\n')
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("wsock: read handshake: %w", err)
	}
	if !strings.Contains(status, "101") {
		nc.Close()
		return nil, fmt.Errorf("wsock: handshake rejected: %s", strings.TrimSpace(status))
	}
	var accept string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			nc.Close()
			return nil, fmt.Errorf("wsock: read handshake headers: %w", err)
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			break
		}
		if k, v, ok := strings.Cut(line, ":"); ok && strings.EqualFold(strings.TrimSpace(k), "Sec-WebSocket-Accept") {
			accept = strings.TrimSpace(v)
		}
	}
	if accept != AcceptKey(key) {
		nc.Close()
		return nil, errors.New("wsock: bad Sec-WebSocket-Accept")
	}
	return &Conn{nc: nc, br: br, client: true}, nil
}

// WriteText sends one text message (fin, unfragmented).
func (c *Conn) WriteText(p []byte) error { return c.writeFrame(opText, p) }

// writeFrame assembles one FIN frame — header, mask key, payload — into the
// connection's pooled write buffer and emits it with a single Write. One
// write instead of two halves the syscalls per frame and keeps header and
// payload in one TCP segment for small messages; the pooled buffer makes the
// steady state allocation-free. Client frames mask in place while copying
// into the buffer, with mask keys drawn from the buffered rand pool.
func (c *Conn) writeFrame(opcode byte, p []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.closed && opcode != opClose {
		return ErrClosed
	}
	buf, err := c.appendFrame(c.wbuf[:0], opcode, p)
	if err != nil {
		return err
	}
	return c.send(buf, 1)
}

// maxKeptWbuf is the write-buffer capacity a connection keeps between
// writes: every steady-state batch fits, and a larger one (a join snapshot)
// is dropped after its write instead of pinning its size for life.
const maxKeptWbuf = 16 << 10

// send emits an assembled buffer of frames with one Write and keeps the
// buffer for the next one, up to maxKeptWbuf. Callers hold wmu.
func (c *Conn) send(buf []byte, frames int) error {
	c.wbuf = buf
	if cap(buf) > maxKeptWbuf {
		c.wbuf = nil
	}
	_, err := c.nc.Write(buf)
	if err == nil {
		c.countWrite(frames, len(buf))
	}
	return err
}

// putHeader writes the unmasked FIN frame header for an n-byte payload into
// hdr (at least 10 bytes) and returns its length.
func putHeader(hdr []byte, opcode byte, n int) int {
	hdr[0] = 0x80 | opcode // FIN set
	switch {
	case n < 126:
		hdr[1] = byte(n)
		return 2
	case n <= 0xFFFF:
		hdr[1] = 126
		binary.BigEndian.PutUint16(hdr[2:4], uint16(n))
		return 4
	default:
		hdr[1] = 127
		binary.BigEndian.PutUint64(hdr[2:10], uint64(n))
		return 10
	}
}

// appendFrame appends one assembled FIN frame (header, mask key for client
// connections, payload) to buf and returns it. Callers hold wmu; the batch
// write path appends several frames into one buffer before a single Write.
func (c *Conn) appendFrame(buf []byte, opcode byte, p []byte) ([]byte, error) {
	var hdr [14]byte
	n := putHeader(hdr[:], opcode, len(p))
	if c.client {
		hdr[1] |= 0x80
		mask, err := c.nextMask()
		if err != nil {
			return nil, err
		}
		copy(hdr[n:n+4], mask[:])
		n += 4
		start := len(buf)
		buf = append(buf, hdr[:n]...)
		buf = append(buf, p...)
		body := buf[start+n:]
		for i := range body {
			body[i] ^= mask[i%4]
		}
	} else {
		buf = append(buf, hdr[:n]...)
		buf = append(buf, p...)
	}
	return buf, nil
}

// nextMask returns a fresh 4-byte frame mask from the buffered crypto/rand
// pool, refilling it with one syscall per 64 frames instead of one per
// frame. Caller holds wmu.
func (c *Conn) nextMask() ([4]byte, error) {
	var m [4]byte
	if c.maskAvail < 4 {
		if _, err := rand.Read(c.maskPool[:]); err != nil {
			return m, fmt.Errorf("wsock: mask: %w", err) //lint:allow hotalloc crypto-rand failure is fatal connection teardown
		}
		c.maskAvail = len(c.maskPool)
		c.countMaskRefill()
	}
	copy(m[:], c.maskPool[len(c.maskPool)-c.maskAvail:])
	c.maskAvail -= 4
	return m, nil
}

// ReadText reads the next text message, transparently answering pings and
// assembling fragmented messages. It returns ErrClosed after the closing
// handshake, and io.EOF-wrapped errors on abrupt connection loss. The
// returned slice is the caller's to keep; allocation-sensitive readers use
// ReadTextLease instead.
func (c *Conn) ReadText() ([]byte, error) {
	p, err := c.ReadTextLease()
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), p...), nil
}

// ReadTextLease reads the next text message into the connection's reusable
// read buffer and returns it without copying. The returned slice is a
// lease: it is valid only until the next ReadText, ReadTextLease, or
// TryReadTextLease call on this connection, which reuses the same backing
// buffer. Callers that need the bytes longer must copy them first (see
// DESIGN.md §11 for the ownership protocol; the bufown analyzer enforces
// it).
func (c *Conn) ReadTextLease() ([]byte, error) {
	if c.poll != nil {
		return nil, errPollMode
	}
	for {
		// Block until the window holds at least one byte, then parse what
		// is there; a message split across window fills resumes mid-frame.
		if _, err := c.br.Peek(1); err != nil {
			return nil, err
		}
		if msg, err := c.stepWindow(); err != nil {
			return nil, err
		} else if msg {
			return c.rbuf, nil
		}
	}
}

// TryReadTextLease returns the next text message without blocking, if the
// bytes already sitting in the read buffer complete one — fragmented or not.
// Buffered control frames are processed on the way (pongs answered, close
// handshake completed) and buffered protocol violations reported; a trailing
// partial frame is consumed into the reassembly state, where the next read
// in either mode resumes it. ok is false when no message is complete. The
// same lease discipline as ReadTextLease applies.
func (c *Conn) TryReadTextLease() (payload []byte, ok bool, err error) {
	if c.poll != nil || c.br == nil {
		return nil, false, nil
	}
	if msg, err := c.stepWindow(); !msg || err != nil {
		return nil, false, err
	}
	return c.rbuf, true, nil
}

// stepWindow steps the machine over the bytes sitting in the bufio window —
// parsing in place, never touching the connection — and discards what it
// consumed. msg reports a complete message in rbuf.
func (c *Conn) stepWindow() (msg bool, err error) {
	window, _ := c.br.Peek(c.br.Buffered()) // exactly what is buffered: cannot block or fail
	rest, msg, err := c.step(window)
	_, _ = c.br.Discard(len(window) - len(rest)) // within the window: cannot fail either
	return msg, err
}

// Ping sends a ping frame (liveness probes).
func (c *Conn) Ping(data []byte) error { return c.writeFrame(opPing, data) }

// SetWriteDeadline bounds how long subsequent writes may block. The flusher
// pool uses it as a backstop so one stalled socket cannot wedge a shared
// flusher indefinitely; a write that hits the deadline leaves the stream
// mid-frame, so callers must treat the error as fatal and drop the
// connection. The zero time clears the deadline.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.nc.SetWriteDeadline(t) }

// Close performs the closing handshake from this side and closes the
// underlying connection.
func (c *Conn) Close() error {
	c.wmu.Lock()
	if c.closed {
		c.wmu.Unlock()
		return nil
	}
	c.closed = true
	c.wmu.Unlock()
	_ = c.writeFrame(opClose, nil)
	err := c.nc.Close()
	c.fireOnClose()
	return err
}

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }
