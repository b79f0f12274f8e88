package server

import (
	"net/http/httptest"
	"runtime"
	"strings"
	gosync "sync"
	"testing"
	"time"

	"crowdfill/internal/constraint"
	"crowdfill/internal/metrics"
	"crowdfill/internal/model"
	"crowdfill/internal/netpoll"
	"crowdfill/internal/sync"
	"crowdfill/internal/transport"
	"crowdfill/internal/wsock"
)

// pollTestServer builds a NetServer behind a real WebSocket endpoint,
// skipping when the platform has no readiness backend (the test asserts
// poller-plane properties that the blocking fallback cannot have).
func pollTestServer(t *testing.T) (*NetServer, string) {
	t.Helper()
	if !netpoll.OSSupported() {
		t.Skip("no readiness backend on this platform")
	}
	s := kvSchema(t)
	core, err := New(Config{
		Schema:   s,
		Score:    model.MajorityShortcut(3),
		Template: constraint.Cardinality(s, 1),
		Budget:   1,
		Metrics:  NewMetrics(metrics.NewRegistry(), metrics.NewRecorder(16)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ns := NewNetServer(core, nil)
	if !ns.poller.Supported() {
		t.Fatal("poller did not start on a supported platform")
	}
	hsrv := httptest.NewServer(ns.Handler())
	t.Cleanup(hsrv.Close)
	return ns, "ws" + strings.TrimPrefix(hsrv.URL, "http")
}

// pollRegistered reads the server's poller-registration gauge, which the
// poller moves by one on every register and deregister.
func pollRegistered(ns *NetServer) int {
	return int(ns.core.metrics.pollConns.Value())
}

func clientCount(ns *NetServer) int {
	n := 0
	ns.WithCore(func(c *Core) { n = c.Status().Clients })
	return n
}

// TestPollPlaneZeroGoroutinesPerConn is the read plane's headline property:
// connections served by the poller hold no dedicated goroutine — live ones
// mid-traffic, parked ones idle, and ones mid-readiness-dispatch alike — and
// every poller goroutine joins at Shutdown.
func TestPollPlaneZeroGoroutinesPerConn(t *testing.T) {
	ns, url := pollTestServer(t)
	const conns = 40

	// Baseline after the server's fixed pools exist but before any
	// connection: whatever N connections add on top is per-connection cost.
	baseline := runtime.NumGoroutine()

	clients := make([]transport.Conn, 0, conns)
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for i := 0; i < conns; i++ {
		ws, err := wsock.Dial(url + "?worker=w-poll")
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		clients = append(clients, transport.WrapWS(ws))
	}
	// serve adds the core client first and registers with the poller after,
	// so the two counts are reached one after the other.
	waitFor(t, func() bool { return clientCount(ns) == conns })
	waitFor(t, func() bool { return pollRegistered(ns) == conns })

	// Drive traffic through the dispatch path: rejects exercise the full
	// readable → PollRecv → handleAndPublish chain without finishing the
	// collection.
	for _, c := range clients {
		if err := c.Send(sync.Message{Type: sync.MsgUpvote, Row: "no-such-row", Origin: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	// All clients stay registered (rejects are not teardowns)...
	time.Sleep(50 * time.Millisecond)
	if got := clientCount(ns); got != conns {
		t.Fatalf("clients after rejected traffic = %d, want %d", got, conns)
	}
	// ...and the herd cost no reader goroutines: the blocking plane would
	// sit at baseline+conns here. The slack absorbs transient runtime and
	// flusher-pool goroutines, and stays far below one per connection.
	waitFor(t, func() bool { return runtime.NumGoroutine() <= baseline+conns/4 })

	// Peer-side close of half the herd: close hooks route into teardown,
	// deregistering from both the core and the poller.
	for _, c := range clients[:conns/2] {
		c.Close()
	}
	waitFor(t, func() bool { return clientCount(ns) == conns/2 })
	waitFor(t, func() bool { return pollRegistered(ns) == conns/2 })

	// Shutdown with the other half still live, some mid-dispatch (they are
	// sent fresh traffic right before): everything joins.
	for _, c := range clients[conns/2:] {
		c.Send(sync.Message{Type: sync.MsgUpvote, Row: "no-such-row", Origin: "x"})
	}
	ns.Shutdown()
	waitFor(t, func() bool { return clientCount(ns) == 0 })
	waitFor(t, func() bool { return pollRegistered(ns) == 0 })
	waitFor(t, func() bool { return runtime.NumGoroutine() <= baseline })
}

// TestPollPlaneServesTraffic runs a real collection through the poller plane
// end to end (the network test netWorker flow covers this too; this variant
// pins that the poll path — not a fallback — carried it).
func TestPollPlaneServesTraffic(t *testing.T) {
	ns, url := pollTestServer(t)
	var wg gosync.WaitGroup
	wg.Add(2)
	s := ns.core.cfg.Schema
	go netWorker(t, url, "w1", s, []string{"alpha"}, &wg)
	go netWorker(t, url, "w2", s, nil, &wg)

	// The upgrade path must actually register with the poller.
	waitFor(t, func() bool { return pollRegistered(ns) > 0 })
	wg.Wait()
	if !ns.Done() {
		t.Fatal("collection did not finish over the poll plane")
	}
	waitFor(t, func() bool { return pollRegistered(ns) == 0 })
	ns.Shutdown()
}
