package server

import (
	"net/http/httptest"
	"strings"
	gosync "sync"
	"sync/atomic"
	"testing"
	"time"

	"crowdfill/internal/client"
	"crowdfill/internal/sync"
	"crowdfill/internal/transport"
	"crowdfill/internal/wsock"
)

// doneHost is a host of the Done transition that counts its callbacks. Its
// callback sleeps before returning, so a transition that published MsgDone
// before the callback returned would be seen by the links.
type doneHost struct {
	calls    atomic.Int32
	returned atomic.Bool
	ran      chan struct{}
}

func newDoneHost() *doneHost { return &doneHost{ran: make(chan struct{}, 4)} }

func (h *doneHost) onDone() {
	h.calls.Add(1)
	time.Sleep(20 * time.Millisecond)
	h.ran <- struct{}{}
	h.returned.Store(true)
}

// doneRecConn records the type of every message a client link receives, and
// whether a MsgDone arrived before the host's callback had returned.
type doneRecConn struct {
	transport.Conn
	h     *doneHost
	mu    gosync.Mutex
	types []sync.MsgType
	early bool
}

func (r *doneRecConn) RecvBatch(dst []sync.Message) (int, error) {
	n, err := r.Conn.RecvBatch(dst)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range dst[:n] {
		if m.Type == sync.MsgDone && !r.h.returned.Load() {
			r.early = true
		}
		r.types = append(r.types, m.Type)
	}
	return n, err
}

// link is one recorded worker connection.
type link struct {
	rec    *doneRecConn
	runner *client.Runner
}

// closed waits until the server has closed the link.
func (l *link) closed(t *testing.T) {
	t.Helper()
	select {
	case <-l.runner.Err():
	case <-time.After(10 * time.Second):
		t.Fatal("the server never closed the link")
	}
}

// heardDoneLast reports how the link's stream ended: MsgDone exactly once,
// as its last message, and never before the host's callback returned.
func (l *link) heardDoneLast(t *testing.T, who string) {
	t.Helper()
	l.rec.mu.Lock()
	defer l.rec.mu.Unlock()
	n := 0
	for _, typ := range l.rec.types {
		if typ == sync.MsgDone {
			n++
		}
	}
	if n != 1 || l.rec.types[len(l.rec.types)-1] != sync.MsgDone {
		t.Errorf("%s received %v; want MsgDone exactly once, last", who, l.rec.types)
	}
	if l.rec.early {
		t.Errorf("%s heard MsgDone before the host's callback returned", who)
	}
}

// dialer connects a worker to a NetServer over one kind of transport.
type dialer func(t *testing.T, ns *NetServer, worker string) transport.Conn

func pipeDialer(t *testing.T, ns *NetServer, worker string) transport.Conn {
	srv, cli := transport.Pipe(256)
	go ns.ServeConn(srv, worker)
	return cli
}

func wsDialer(t *testing.T, ns *NetServer, worker string) transport.Conn {
	hs := httptest.NewServer(ns.Handler())
	t.Cleanup(hs.Close)
	ws, err := wsock.Dial("ws" + strings.TrimPrefix(hs.URL, "http") + "/?worker=" + worker)
	if err != nil {
		t.Fatal(err)
	}
	return transport.WrapWS(ws)
}

var dialers = []struct {
	name string
	dial dialer
}{{"pipe", pipeDialer}, {"websocket", wsDialer}}

func connect(t *testing.T, ns *NetServer, h *doneHost, dial dialer, worker string) *link {
	t.Helper()
	rec := &doneRecConn{Conn: dial(t, ns, worker), h: h}
	c, err := client.New(client.Config{ID: worker, Worker: worker, Schema: ns.core.cfg.Schema})
	if err != nil {
		t.Fatal(err)
	}
	l := &link{rec: rec, runner: client.NewRunner(c, rec)}
	t.Cleanup(func() { l.runner.Close() })
	return l
}

// TestDoneTransition finishes a one-row majority-of-3 collection over each
// transport: one worker fills the row, and two workers' upvotes, each of
// which completes the collection if handled first, race. The host callback
// runs exactly once, on a core holding the final status, table and log;
// every link, including one that never acts, hears MsgDone exactly once,
// last, only after the callback returned, and is then closed; a worker that
// joins after Done hears MsgDone alone and is not registered.
func TestDoneTransition(t *testing.T) {
	for _, d := range dialers {
		t.Run(d.name, func(t *testing.T) {
			for iter := 0; iter < 5; iter++ {
				h := newDoneHost()
				core, err := New(cardinalityConfig(t, 1))
				if err != nil {
					t.Fatal(err)
				}
				ns := NewNetServer(core, h.onDone)
				links := map[string]*link{}
				for _, w := range []string{"filler", "voter1", "voter2", "observer"} {
					links[w] = connect(t, ns, h, d.dial, w)
				}
				for _, l := range links {
					waitFor(t, func() bool {
						ok := false
						l.runner.View(func(c *client.Client) { ok = len(c.Rows(nil)) == 1 })
						return ok
					})
				}
				fill(t, links["filler"].runner)
				for _, w := range []string{"voter1", "voter2"} {
					waitFor(t, func() bool {
						ok := false
						links[w].runner.View(func(c *client.Client) { ok = c.Rows(nil)[0].Vec.IsComplete() })
						return ok
					})
				}
				var wg gosync.WaitGroup
				start := make(chan struct{})
				for _, w := range []string{"voter1", "voter2"} {
					wg.Add(1)
					go func(r *client.Runner) {
						defer wg.Done()
						<-start
						_ = r.Do(func(c *client.Client) ([]sync.Message, error) {
							m, err := c.Upvote(c.Rows(nil)[0].ID)
							return []sync.Message{m}, err
						})
					}(links[w].runner)
				}
				close(start)
				wg.Wait()

				for w, l := range links {
					l.closed(t)
					l.heardDoneLast(t, w)
				}
				if n := h.calls.Load(); n != 1 {
					t.Fatalf("host callback ran %d times, want once", n)
				}
				<-h.ran
				status := func() (st Status) {
					ns.WithCore(func(c *Core) { st = c.Status() })
					return st
				}
				var rows [][]string
				var trace int
				ns.WithCore(func(c *Core) { rows, trace = c.ResultRows(), len(c.Log().Trace) })
				final := status()
				if !final.Done || final.FinalRows != 1 || len(rows) != 1 || rows[0][0] != "k0" {
					t.Fatalf("final status %+v, rows %v: want done with the one filled row", final, rows)
				}
				if trace != final.Messages || trace < 3 {
					t.Fatalf("final log holds %d messages, status %d", trace, final.Messages)
				}
				waitFor(t, func() bool { return status().Clients == 0 })
				late := connect(t, ns, h, d.dial, "late")
				late.closed(t)
				late.rec.mu.Lock()
				if got := late.rec.types; len(got) != 1 || got[0] != sync.MsgDone {
					t.Errorf("a join after Done received %v, want MsgDone alone", got)
				}
				late.rec.mu.Unlock()
				if st := status(); st.Clients != 0 || st.Messages != final.Messages {
					t.Errorf("status after a join after Done = %+v, want the final one %+v", st, final)
				}
				if n := h.calls.Load(); n != 1 {
					t.Fatalf("host callback ran %d times after a late join, want once", n)
				}
			}
		})
	}
}

// fill completes the collection's one row with key k0.
func fill(t *testing.T, r *client.Runner) {
	t.Helper()
	if err := r.Do(func(c *client.Client) ([]sync.Message, error) {
		return c.Fill(c.Rows(nil)[0].ID, 0, "k0")
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.Do(func(c *client.Client) ([]sync.Message, error) {
		for _, row := range c.Rows(nil) {
			if row.Vec[0].Set && !row.Vec[1].Set {
				return c.Fill(row.ID, 1, "v0")
			}
		}
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDoneAtConstruction: a core that is done when it is wrapped (an empty
// template) fires the host callback with no client connected, and a worker
// that joins afterwards hears MsgDone alone.
func TestDoneAtConstruction(t *testing.T) {
	for _, d := range dialers {
		t.Run(d.name, func(t *testing.T) {
			core, err := New(cardinalityConfig(t, 0))
			if err != nil {
				t.Fatal(err)
			}
			if !core.Done() {
				t.Fatal("an empty template should be done at construction")
			}
			h := newDoneHost()
			ns := NewNetServer(core, h.onDone)
			select {
			case <-h.ran:
				var st Status
				var rows [][]string
				ns.WithCore(func(c *Core) { st, rows = c.Status(), c.ResultRows() })
				if !st.Done || st.Clients != 0 || len(rows) != 0 {
					t.Fatalf("final status %+v, rows %v: want done and empty", st, rows)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the host callback never ran")
			}
			l := connect(t, ns, h, d.dial, "late")
			l.closed(t)
			l.heardDoneLast(t, "late")
			if len(l.rec.types) != 1 {
				t.Errorf("a join after Done received %v, want MsgDone alone", l.rec.types)
			}
			if n := h.calls.Load(); n != 1 {
				t.Fatalf("host callback ran %d times, want once", n)
			}
		})
	}
}
