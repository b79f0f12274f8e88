package client

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"crowdfill/internal/model"
	"crowdfill/internal/sync"
	"crowdfill/internal/transport"
	"crowdfill/internal/wsock"
)

// fakeServer echoes a scripted behavior over the server side of a pipe.
func runnerFixture(t *testing.T) (*Runner, transport.Conn) {
	t.Helper()
	c, err := New(Config{ID: "c1", Worker: "w1", Schema: kvSchema(t)})
	if err != nil {
		t.Fatal(err)
	}
	serverSide, clientSide := transport.Pipe(16)
	r := NewRunner(c, clientSide)
	t.Cleanup(func() { r.Close() })
	return r, serverSide
}

func TestRunnerPumpAppliesServerMessages(t *testing.T) {
	r, srv := runnerFixture(t)
	if err := srv.Send(sync.Message{Type: sync.MsgInsert, Row: "cc-1", Origin: "cc"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		n := 0
		r.View(func(c *Client) { n = len(c.Rows(nil)) })
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	var rows int
	r.View(func(c *Client) { rows = len(c.Rows(nil)) })
	if rows != 1 {
		t.Fatalf("pump did not apply the insert")
	}
}

func TestRunnerDoSendsMessages(t *testing.T) {
	r, srv := runnerFixture(t)
	if err := srv.Send(sync.Message{Type: sync.MsgInsert, Row: "cc-1", Origin: "cc"}); err != nil {
		t.Fatal(err)
	}
	// Wait for the row, then fill through Do.
	waitRunner(t, r, func(c *Client) bool { return len(c.Rows(nil)) == 1 })
	if err := r.Do(func(c *Client) ([]sync.Message, error) {
		return c.Fill("cc-1", 0, "x")
	}); err != nil {
		t.Fatalf("Do: %v", err)
	}
	m, err := srv.Recv()
	if err != nil || m.Type != sync.MsgReplace || m.Val != "x" {
		t.Fatalf("server received %+v, %v", m, err)
	}
	// Do propagates action errors without sending.
	err = r.Do(func(c *Client) ([]sync.Message, error) {
		return nil, errors.New("nope")
	})
	if err == nil || err.Error() != "nope" {
		t.Fatalf("Do error = %v", err)
	}
}

func TestRunnerDoneAndErr(t *testing.T) {
	r, srv := runnerFixture(t)
	if r.Done() {
		t.Fatalf("fresh runner done")
	}
	if err := srv.Send(sync.Message{Type: sync.MsgDone}); err != nil {
		t.Fatal(err)
	}
	waitRunner(t, r, func(c *Client) bool { return c.Done() })
	if !r.Done() {
		t.Fatalf("runner should be done")
	}
	// Closing the link surfaces a terminal error on Err.
	srv.Close()
	select {
	case <-r.Err():
	case <-time.After(5 * time.Second):
		t.Fatalf("no terminal error after close")
	}
}

func TestRunnerPumpStopsOnBadMessage(t *testing.T) {
	r, srv := runnerFixture(t)
	// A width-mismatched vector makes HandleServer fail; the pump reports it.
	if err := srv.Send(sync.Message{Type: sync.MsgUpvote, Vec: model.VectorOf("a")}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-r.Err():
		if err == nil {
			t.Fatalf("expected an error")
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("pump never surfaced the apply error")
	}
}

// TestRunnerEstimatesOverWebSocket: over a real link, where every estimate
// decodes into storage the link reuses, View sees the client's own copy of
// whole payloads. The pump decodes outside the runner's lock and View reads
// under it, so a client that kept the decoded figures instead of copying
// them is a reported race under -race, and a torn payload without it.
func TestRunnerEstimatesOverWebSocket(t *testing.T) {
	ready := make(chan transport.Conn, 1)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if ws, err := wsock.Upgrade(w, req); err == nil {
			ready <- transport.WrapWS(ws)
		}
	}))
	t.Cleanup(hs.Close)
	ws, err := wsock.Dial("ws" + strings.TrimPrefix(hs.URL, "http"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{ID: "c1", Worker: "w1", Schema: kvSchema(t)})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(c, transport.WrapWS(ws))
	t.Cleanup(func() { r.Close() })
	srv := <-ready
	t.Cleanup(func() { srv.Close() })

	const n = 300
	sent := make(chan error, 1)
	go func() {
		for i := 1; i <= n; i++ {
			f := float64(i)
			est := &sync.Estimates{PerColumn: []float64{f, f}, Upvote: f, Downvote: f}
			if err := srv.Send(sync.Message{Type: sync.MsgEstimate, Estimates: est}); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	deadline := time.Now().Add(10 * time.Second)
	for epoch := r.Epoch(); ; epoch = r.WaitChange(epoch) {
		var last float64
		var torn string
		r.View(func(c *Client) {
			if e := c.Estimates(); e != nil {
				last = e.Upvote
				if e.Downvote != last || len(e.PerColumn) != 2 || e.PerColumn[0] != last || e.PerColumn[1] != last {
					torn = fmt.Sprintf("%+v", *e)
				}
			}
		})
		if torn != "" {
			t.Fatalf("View saw figures from two payloads: %s", torn)
		}
		if last == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("latest estimate %v, want %d", last, n)
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

func waitRunner(t *testing.T, r *Runner, cond func(*Client) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ok := false
		r.View(func(c *Client) { ok = cond(c) })
		if ok {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("condition not reached")
}

func TestVotedOnAndDirection(t *testing.T) {
	c := newClient(t)
	seedRow(t, c, "cc-1")
	m, _ := c.Fill("cc-1", 0, "x")
	id := m[0].NewRow
	vec := c.Replica().Table().Get(id).Vec.Clone()
	if c.VotedOn(vec) || c.VoteDirection(vec) != 0 {
		t.Fatalf("fresh row should be unvoted")
	}
	if _, err := c.Downvote(id); err != nil {
		t.Fatal(err)
	}
	if !c.VotedOn(vec) || c.VoteDirection(vec) != -1 {
		t.Fatalf("downvote direction = %d", c.VoteDirection(vec))
	}
	if _, err := c.UndoVote(vec); err != nil {
		t.Fatal(err)
	}
	// Complete the row: the auto-upvote flips the direction.
	m2, _ := c.Fill(id, 1, "1")
	full := c.Replica().Table().Get(m2[0].NewRow).Vec.Clone()
	if c.VoteDirection(full) != 1 {
		t.Fatalf("auto-upvote direction = %d", c.VoteDirection(full))
	}
}

func TestRunnerConcurrentDoAndPump(t *testing.T) {
	r, srv := runnerFixture(t)
	// Server floods inserts while the client acts; the runner's lock must
	// keep the replica consistent (run with -race).
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if err := srv.Send(sync.Message{Type: sync.MsgInsert, Row: model.RowID(fmt.Sprintf("cc-%d", i)), Origin: "cc"}); err != nil {
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		_ = r.Do(func(c *Client) ([]sync.Message, error) {
			for _, row := range c.Rows(nil) {
				if !row.Vec[0].Set {
					return c.Fill(row.ID, 0, fmt.Sprintf("v%d", i))
				}
			}
			return nil, nil
		})
	}
	<-done
}
