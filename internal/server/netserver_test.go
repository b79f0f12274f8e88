package server

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	gosync "sync"
	"testing"
	"time"

	"crowdfill/internal/client"
	"crowdfill/internal/constraint"
	"crowdfill/internal/model"
	"crowdfill/internal/pay"
	"crowdfill/internal/sync"
	"crowdfill/internal/transport"
	"crowdfill/internal/wsock"
)

// netWorker is a minimal live worker: it fills assigned keys and upvotes
// everything it believes correct, over a real WebSocket.
func netWorker(t *testing.T, url, worker string, schema *model.Schema, keys []string, wg *gosync.WaitGroup) {
	defer wg.Done()
	ws, err := wsock.Dial(url + "?worker=" + worker)
	if err != nil {
		t.Errorf("%s dial: %v", worker, err)
		return
	}
	c, err := client.New(client.Config{ID: worker, Worker: worker, Schema: schema})
	if err != nil {
		t.Errorf("%s: %v", worker, err)
		return
	}
	r := client.NewRunner(c, transport.WrapWS(ws))
	defer r.Close()

	deadline := time.After(20 * time.Second)
	for !r.Done() {
		select {
		case <-deadline:
			t.Errorf("%s: run did not finish", worker)
			return
		case <-time.After(2 * time.Millisecond):
		}
		err := r.Do(func(c *client.Client) ([]sync.Message, error) {
			// Vote on any complete row not yet voted on.
			for _, row := range c.Rows(nil) {
				if row.Vec.IsComplete() && !c.VotedOn(row.Vec) {
					m, err := c.Upvote(row.ID)
					if err != nil {
						continue // e.g. key already upvoted
					}
					return []sync.Message{m}, nil
				}
			}
			// Otherwise fill: keys first, then values.
			if len(keys) > 0 {
				for _, row := range c.Rows(nil) {
					if row.Vec.IsEmpty() {
						msgs, err := c.Fill(row.ID, 0, keys[0])
						if err == nil {
							keys = keys[1:]
							return msgs, nil
						}
					}
				}
			}
			for _, row := range c.Rows(nil) {
				if row.Vec[0].Set && !row.Vec[1].Set {
					msgs, err := c.Fill(row.ID, 1, "val-"+row.Vec[0].Val)
					if err == nil {
						return msgs, nil
					}
				}
			}
			return nil, nil
		})
		if err != nil && !strings.Contains(err.Error(), "closed") {
			// Errors after Done are expected when the server shuts down.
			if !r.Done() {
				t.Logf("%s action error: %v", worker, err)
			}
			return
		}
	}
}

// TestNetworkCollection runs a full collection over real WebSockets: three
// workers, cardinality 4, majority-of-3 scoring.
func TestNetworkCollection(t *testing.T) {
	s := kvSchema(t)
	core, err := New(Config{
		Schema:   s,
		Score:    model.MajorityShortcut(3),
		Template: constraint.Cardinality(s, 4),
		Budget:   10,
		Scheme:   pay.DualWeighted,
	})
	if err != nil {
		t.Fatal(err)
	}
	ns := NewNetServer(core, quietLogf(t))
	hsrv := httptest.NewServer(ns.Handler())
	defer hsrv.Close()
	url := "ws" + strings.TrimPrefix(hsrv.URL, "http")

	var wg gosync.WaitGroup
	wg.Add(3)
	go netWorker(t, url, "w1", s, []string{"alpha", "bravo"}, &wg)
	go netWorker(t, url, "w2", s, []string{"charlie", "delta"}, &wg)
	go netWorker(t, url, "w3", s, nil, &wg)
	wg.Wait()

	if !ns.Done() {
		t.Fatalf("collection did not finish")
	}
	ns.WithCore(func(c *Core) {
		final := c.FinalTable()
		if len(final) < 4 {
			t.Fatalf("final rows = %d, want >= 4", len(final))
		}
		if !c.Satisfied() {
			t.Fatalf("constraint unsatisfied")
		}
		alloc, err := c.ComputePay()
		if err != nil {
			t.Fatalf("ComputePay: %v", err)
		}
		if alloc.Allocated <= 0 || alloc.Allocated > 10+1e-9 {
			t.Fatalf("allocated = %v", alloc.Allocated)
		}
		// Workers who filled data must earn something.
		if alloc.PerWorker["w1"] <= 0 || alloc.PerWorker["w2"] <= 0 {
			t.Fatalf("fillers unpaid: %+v", alloc.PerWorker)
		}
	})
}

// TestNetServerOverPipes runs the same flow over in-process pipes (no TCP),
// validating ServeConn and the snapshot path for late joiners.
func TestNetServerOverPipes(t *testing.T) {
	s := kvSchema(t)
	core, err := New(Config{
		Schema:   s,
		Template: constraint.Cardinality(s, 1),
		Score:    model.MajorityShortcut(3),
		Budget:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ns := NewNetServer(core, nil)

	serverSide, clientSide := transport.Pipe(64)
	go ns.ServeConn(serverSide, "w1")

	c, err := client.New(client.Config{ID: "w1", Worker: "w1", Schema: s})
	if err != nil {
		t.Fatal(err)
	}
	r := client.NewRunner(c, clientSide)
	defer r.Close()

	// Wait for the snapshot to land.
	waitFor(t, func() bool {
		ok := false
		r.View(func(c *client.Client) { ok = len(c.Rows(nil)) == 1 })
		return ok
	})

	// One worker completes the row; a second joins late and upvotes.
	if err := r.Do(func(c *client.Client) ([]sync.Message, error) {
		return c.Fill(c.Rows(nil)[0].ID, 0, "x")
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.Do(func(c *client.Client) ([]sync.Message, error) {
		for _, row := range c.Rows(nil) {
			if row.Vec[0].Set && !row.Vec[1].Set {
				return c.Fill(row.ID, 1, "1")
			}
		}
		return nil, fmt.Errorf("row not found")
	}); err != nil {
		t.Fatal(err)
	}

	srv2, cli2 := transport.Pipe(64)
	go ns.ServeConn(srv2, "w2")
	c2, err := client.New(client.Config{ID: "w2", Worker: "w2", Schema: s})
	if err != nil {
		t.Fatal(err)
	}
	r2 := client.NewRunner(c2, cli2)
	defer r2.Close()
	waitFor(t, func() bool {
		ok := false
		r2.View(func(c *client.Client) {
			for _, row := range c.Rows(nil) {
				if row.Vec.IsComplete() {
					ok = true
				}
			}
		})
		return ok
	})
	if err := r2.Do(func(c *client.Client) ([]sync.Message, error) {
		for _, row := range c.Rows(nil) {
			if row.Vec.IsComplete() {
				m, err := c.Upvote(row.ID)
				if err != nil {
					return nil, err
				}
				return []sync.Message{m}, nil
			}
		}
		return nil, fmt.Errorf("no complete row")
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return r.Done() && r2.Done() })
	if !ns.Done() {
		t.Fatalf("server not done")
	}
}

// TestSlowClientOverflowDisconnect stalls one client while traffic flows
// through the real serve/publish path: the broadcast log wraps past the
// stalled connection's cursor, the publisher evicts it (closing its transport,
// which unblocks its writer and fails its reader — the whole connection tears
// down, not just the writer half), and the remaining clients still converge.
// Closing the client's own end afterwards must be a clean no-op.
func TestSlowClientOverflowDisconnect(t *testing.T) {
	s := kvSchema(t)
	// A small log, so a few hundred toggles lap the stalled cursor. The
	// healthy client is kept within a quarter of it (see the toggle loop);
	// the 256 messages its pipe can hold unhandled add at most two records
	// each, which still leaves it short of the capacity.
	const logCapacity = 1024
	core, err := New(Config{
		Schema:      s,
		Score:       model.MajorityShortcut(3),
		Template:    constraint.Cardinality(s, 1),
		Budget:      1,
		LogCapacity: logCapacity,
	})
	if err != nil {
		t.Fatal(err)
	}
	ns := NewNetServer(core, quietLogf(t))

	// The slow client connects and never reads: a tiny pipe buffer blocks
	// its flusher almost immediately, so its log cursor stops
	// advancing while broadcasts keep being published.
	slowSrv, slowCli := transport.Pipe(1)
	go ns.ServeConn(slowSrv, "w-slow")

	srv1, cli1 := transport.Pipe(256)
	go ns.ServeConn(srv1, "w1")
	c1, err := client.New(client.Config{ID: "w1", Worker: "w1", Schema: s})
	if err != nil {
		t.Fatal(err)
	}
	r1 := client.NewRunner(c1, cli1)
	defer r1.Close()

	waitFor(t, func() bool {
		n := 0
		ns.WithCore(func(c *Core) { n = c.Clients() })
		return n == 2
	})
	waitFor(t, func() bool {
		ok := false
		r1.View(func(c *client.Client) { ok = len(c.Rows(nil)) == 1 })
		return ok
	})

	// Complete the row, then toggle the upvote until the slow client's
	// queue overflows (2 broadcast messages per toggle; one upvote never
	// finishes a majority-of-3 collection, so traffic keeps flowing).
	if err := r1.Do(func(c *client.Client) ([]sync.Message, error) {
		return c.Fill(c.Rows(nil)[0].ID, 0, "x")
	}); err != nil {
		t.Fatal(err)
	}
	if err := r1.Do(func(c *client.Client) ([]sync.Message, error) {
		for _, row := range c.Rows(nil) {
			if row.Vec[0].Set && !row.Vec[1].Set {
				return c.Fill(row.ID, 1, "1")
			}
		}
		return nil, fmt.Errorf("partial row not found")
	}); err != nil {
		t.Fatal(err)
	}
	var vec model.Vector
	r1.View(func(c *client.Client) {
		for _, row := range c.Rows(nil) {
			if row.Vec.IsComplete() {
				vec = row.Vec.Clone()
			}
		}
	})
	if vec == nil {
		t.Fatal("no complete row after fills")
	}
	dropped := func() bool {
		live := false
		ns.WithCore(func(c *Core) {
			for _, w := range c.clients {
				if w == "w-slow" {
					live = true
				}
			}
		})
		return !live
	}
	// healthyLag is how far w1's connection trails the log head. Cursor
	// positions are only the evictor's to read, under the write lock.
	var w1ID string
	ns.WithCore(func(c *Core) {
		for id, w := range c.clients {
			if w == "w1" {
				w1ID = id
			}
		}
	})
	healthyLag := func() uint64 {
		ns.log.mu.Lock()
		defer ns.log.mu.Unlock()
		for fc := range ns.log.conns {
			if fc.id == w1ID {
				return ns.log.head - fc.pos
			}
		}
		return 0
	}
	// Completing the row auto-upvoted it, so each toggle undoes then re-casts.
	// The publisher scans for lapped cursors every capacity/2 records, so the
	// eviction is certain within two capacities of traffic — wherever the
	// stalled cursor happened to stop — and asynchronous from there (onEvict
	// closes the transport, the serve goroutine's teardown removes the
	// client). Publish until the removal is observed, bounded well past
	// certainty and never faster than the healthy client drains, then give
	// the teardown time to land.
	for i := 0; i < 4*logCapacity && !dropped(); i++ {
		waitFor(t, func() bool { return healthyLag() < logCapacity/4 })
		if err := r1.Do(func(c *client.Client) ([]sync.Message, error) {
			m, uerr := c.UndoVote(vec)
			if uerr != nil {
				return nil, uerr
			}
			return []sync.Message{m}, nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := r1.Do(func(c *client.Client) ([]sync.Message, error) {
			for _, row := range c.Rows(nil) {
				if row.Vec.IsComplete() {
					m, uerr := c.Upvote(row.ID)
					if uerr != nil {
						return nil, uerr
					}
					return []sync.Message{m}, nil
				}
			}
			return nil, fmt.Errorf("complete row lost")
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, dropped)
	checkScratch(t, ns)

	// The survivors converge: fresh workers push the row to a majority
	// (the toggle loop always ends with w1's upvote cast, so one more vote
	// finishes; extra workers may find the run already done).
	for _, w := range []string{"w2", "w3"} {
		if ns.Done() {
			break
		}
		srvN, cliN := transport.Pipe(256)
		go ns.ServeConn(srvN, w)
		cN, err := client.New(client.Config{ID: w, Worker: w, Schema: s})
		if err != nil {
			t.Fatal(err)
		}
		rN := client.NewRunner(cN, cliN)
		defer rN.Close()
		waitFor(t, func() bool {
			ok := false
			rN.View(func(c *client.Client) {
				for _, row := range c.Rows(nil) {
					if row.Vec.IsComplete() {
						ok = true
					}
				}
			})
			return ok
		})
		if err := rN.Do(func(c *client.Client) ([]sync.Message, error) {
			for _, row := range c.Rows(nil) {
				if row.Vec.IsComplete() {
					m, uerr := c.Upvote(row.ID)
					if uerr != nil {
						return nil, uerr
					}
					return []sync.Message{m}, nil
				}
			}
			return nil, fmt.Errorf("no complete row")
		}); err != nil && !errors.Is(err, client.ErrDone) {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return ns.Done() })
	checkScratch(t, ns)

	// Tear the slow connection down for real: its serve goroutine already
	// ran the eviction teardown, so this second close must be a no-op
	// rather than a crash.
	slowCli.Close()
	time.Sleep(50 * time.Millisecond) // give a would-be panic time to fire

	ns.WithCore(func(c *Core) {
		if n := c.RepairOverruns(); n != 0 {
			t.Fatalf("central client repair overran %d times", n)
		}
	})
}

// TestBroadcastWireBytesShared checks the end-to-end encode-once guarantee:
// two WebSocket clients receive byte-for-byte identical wire text for one
// broadcast, and those bytes equal the canonical per-connection encoding.
func TestBroadcastWireBytesShared(t *testing.T) {
	s := kvSchema(t)
	core, err := New(Config{
		Schema:   s,
		Score:    model.MajorityShortcut(3),
		Template: constraint.Cardinality(s, 1),
		Budget:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ns := NewNetServer(core, quietLogf(t))
	hsrv := httptest.NewServer(ns.Handler())
	defer hsrv.Close()
	url := "ws" + strings.TrimPrefix(hsrv.URL, "http")

	// Two passive raw WebSocket observers.
	ws1, err := wsock.Dial(url + "?worker=obs1")
	if err != nil {
		t.Fatal(err)
	}
	defer ws1.Close()
	ws2, err := wsock.Dial(url + "?worker=obs2")
	if err != nil {
		t.Fatal(err)
	}
	defer ws2.Close()

	// A pipe-connected worker performs one fill, broadcast to both.
	srv3, cli3 := transport.Pipe(64)
	go ns.ServeConn(srv3, "w3")
	c3, err := client.New(client.Config{ID: "w3", Worker: "w3", Schema: s})
	if err != nil {
		t.Fatal(err)
	}
	r3 := client.NewRunner(c3, cli3)
	defer r3.Close()
	waitFor(t, func() bool {
		ok := false
		r3.View(func(c *client.Client) { ok = len(c.Rows(nil)) == 1 })
		return ok
	})
	if err := r3.Do(func(c *client.Client) ([]sync.Message, error) {
		return c.Fill(c.Rows(nil)[0].ID, 0, "x")
	}); err != nil {
		t.Fatal(err)
	}

	readReplace := func(ws *wsock.Conn) []byte {
		for i := 0; i < 32; i++ {
			raw, err := ws.ReadText()
			if err != nil {
				t.Fatalf("ReadText: %v", err)
			}
			m, err := sync.DecodeMessage(raw)
			if err != nil {
				t.Fatalf("DecodeMessage(%q): %v", raw, err)
			}
			if m.Type == sync.MsgReplace {
				return raw
			}
		}
		t.Fatal("no replace broadcast observed")
		return nil
	}
	b1 := readReplace(ws1)
	b2 := readReplace(ws2)
	if string(b1) != string(b2) {
		t.Fatalf("broadcast bytes differ between clients:\n%q\n%q", b1, b2)
	}
	m, err := sync.DecodeMessage(b1)
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := sync.EncodeMessage(m)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(canonical) {
		t.Fatalf("wire bytes are not the canonical encoding:\n%q\n%q", b1, canonical)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("condition not reached in time")
}

// quietLogf is t.Logf for handing to a NetServer: the server passes its log
// function on to goroutines the test does not own and cannot join — pool
// flushers, the recorder's sink, a serve loop still in its epilogue — and a
// t.Logf from one of them after the test has returned panics the whole
// binary. Lines logged once the test's cleanups have run are dropped; the
// mutex keeps a line in flight from straddling that moment.
func quietLogf(t testing.TB) func(format string, args ...any) {
	var mu gosync.Mutex
	done := false
	t.Cleanup(func() {
		mu.Lock()
		done = true
		mu.Unlock()
	})
	return func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if !done {
			t.Logf(format, args...)
		}
	}
}
