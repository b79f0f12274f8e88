package wsock

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// readText reads the next text message and copies it out of the
// connection's lease, so the caller may keep it across reads.
func readText(c *Conn) ([]byte, error) {
	p, err := c.ReadTextLease()
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), p...), nil
}

// echoServer starts an httptest server that upgrades and echoes text frames.
func echoServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := Upgrade(w, r)
		if err != nil {
			return
		}
		defer c.Close()
		for {
			msg, err := readText(c)
			if err != nil {
				return
			}
			if err := c.WriteText(msg); err != nil {
				return
			}
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

func wsURL(srv *httptest.Server) string {
	return "ws" + strings.TrimPrefix(srv.URL, "http")
}

func TestAcceptKeyRFCExample(t *testing.T) {
	// The example from RFC 6455 §1.3.
	got := AcceptKey("dGhlIHNhbXBsZSBub25jZQ==")
	want := "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
	if got != want {
		t.Fatalf("AcceptKey = %q, want %q", got, want)
	}
}

func TestEchoRoundTrip(t *testing.T) {
	srv := echoServer(t)
	c, err := Dial(wsURL(srv))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	for _, msg := range []string{"hello", "", `{"type":1,"row":"a-1"}`} {
		if err := c.WriteText([]byte(msg)); err != nil {
			t.Fatalf("WriteText(%q): %v", msg, err)
		}
		got, err := readText(c)
		if err != nil {
			t.Fatalf("ReadText: %v", err)
		}
		if string(got) != msg {
			t.Fatalf("echo = %q, want %q", got, msg)
		}
	}
}

func TestLargeFrames(t *testing.T) {
	srv := echoServer(t)
	c, err := Dial(wsURL(srv))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Exercise the 16-bit and 64-bit length encodings.
	for _, size := range []int{126, 65535, 65536, 1 << 18} {
		msg := strings.Repeat("x", size)
		if err := c.WriteText([]byte(msg)); err != nil {
			t.Fatalf("write %d bytes: %v", size, err)
		}
		got, err := readText(c)
		if err != nil {
			t.Fatalf("read %d bytes: %v", size, err)
		}
		if len(got) != size {
			t.Fatalf("echo size = %d, want %d", len(got), size)
		}
	}
}

func TestPingTransparent(t *testing.T) {
	srv := echoServer(t)
	c, err := Dial(wsURL(srv))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A ping from the client gets ponged by the peer's read loop... the echo
	// server's ReadText answers it internally; the subsequent text flows.
	if err := c.Ping([]byte("beat")); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if err := c.WriteText([]byte("after-ping")); err != nil {
		t.Fatal(err)
	}
	got, err := readText(c)
	if err != nil {
		t.Fatalf("ReadText after ping: %v", err)
	}
	if string(got) != "after-ping" {
		t.Fatalf("got %q", got)
	}
}

func TestCloseHandshake(t *testing.T) {
	srv := echoServer(t)
	c, err := Dial(wsURL(srv))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := c.WriteText([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close err = %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestServerInitiatedClose(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := Upgrade(w, r)
		if err != nil {
			return
		}
		c.Close()
	}))
	defer srv.Close()
	c, err := Dial(wsURL(srv))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.After(5 * time.Second)
	done := make(chan error, 1)
	go func() {
		_, err := readText(c)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("read err = %v, want ErrClosed", err)
		}
	case <-deadline:
		t.Fatalf("close handshake timed out")
	}
}

func TestUpgradeRejectsPlainRequests(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := Upgrade(w, r); err == nil {
			t.Errorf("plain request should not upgrade")
		}
	}))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	// Wrong method.
	resp, err = http.Post(srv.URL, "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d, want 405", resp.StatusCode)
	}
}

func TestDialErrors(t *testing.T) {
	if _, err := Dial("http://example.com"); err == nil {
		t.Errorf("non-ws scheme should fail")
	}
	if _, err := Dial("ws://127.0.0.1:1"); err == nil {
		t.Errorf("refused connection should fail")
	}
	if _, err := Dial("://bad"); err == nil {
		t.Errorf("unparseable url should fail")
	}
	// An HTTP (non-upgrading) server rejects the handshake.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusBadRequest)
	}))
	defer srv.Close()
	if _, err := Dial(wsURL(srv)); err == nil {
		t.Errorf("non-101 response should fail the handshake")
	}
}

func TestConcurrentWriters(t *testing.T) {
	srv := echoServer(t)
	c, err := Dial(wsURL(srv))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 50
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() { errs <- c.WriteText([]byte("msg")) }()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent write: %v", err)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := readText(c); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
}

func TestUpgradeMissingKey(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := Upgrade(w, r); err == nil {
			t.Errorf("keyless upgrade should fail")
		}
	}))
	defer srv.Close()
	req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", "websocket")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestDialBadAccept(t *testing.T) {
	// A server that completes the upgrade with a wrong accept key.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hj, _ := w.(http.Hijacker)
		nc, rw, err := hj.Hijack()
		if err != nil {
			return
		}
		defer nc.Close()
		rw.WriteString("HTTP/1.1 101 Switching Protocols\r\nUpgrade: websocket\r\n" +
			"Connection: Upgrade\r\nSec-WebSocket-Accept: bogus\r\n\r\n")
		rw.Flush()
	}))
	defer srv.Close()
	if _, err := Dial(wsURL(srv)); err == nil {
		t.Fatalf("bad accept key should fail the dial")
	}
}

func TestDialDefaultPort(t *testing.T) {
	// ws://host without a port implies :80; just check it doesn't panic and
	// returns some dial outcome quickly (likely refused in the sandbox).
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = Dial("ws://127.0.0.1/x")
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("default-port dial hung")
	}
}
