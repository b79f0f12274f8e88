package wsock

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func benchConn(b *testing.B) *Conn {
	b.Helper()
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
	b.Cleanup(srv.Close)
	c, err := Dial("ws" + strings.TrimPrefix(srv.URL, "http"))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

// BenchmarkEchoRoundTrip measures a full masked text frame round trip over
// loopback TCP — the per-message cost of the sync layer's wire.
func BenchmarkEchoRoundTrip(b *testing.B) {
	c := benchConn(b)
	msg := []byte(`{"type":2,"row":"a-1","newRow":"a-2","vec":["x",null],"col":0,"val":"x"}`)
	b.SetBytes(int64(len(msg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WriteText(msg); err != nil {
			b.Fatal(err)
		}
		if _, err := readText(c); err != nil {
			b.Fatal(err)
		}
	}
}
