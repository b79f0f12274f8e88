package server

import (
	"slices"
	"testing"

	"crowdfill/internal/client"
	"crowdfill/internal/sync"
	"crowdfill/internal/transport"
)

// joinView is what a joiner's link carried before any broadcast: the
// private snapshot, rebuilt into a replica, and the private estimate.
type joinView struct {
	snapshot string
	est      sync.Estimates
}

// readJoin decodes a fresh link's two private messages off the wire.
func readJoin(t *testing.T, conn transport.Conn, ns *NetServer) joinView {
	t.Helper()
	var v joinView
	m, err := conn.Recv()
	if err != nil || m.Type != sync.MsgSnapshot || m.Snapshot == nil {
		t.Fatalf("first message on the link = %v (err %v), want a snapshot", m.Type, err)
	}
	rep := sync.NewReplica(ns.core.cfg.Schema)
	if err := rep.LoadSnapshot(m.Snapshot); err != nil {
		t.Fatal(err)
	}
	v.snapshot = rep.SnapshotText()
	m, err = conn.Recv()
	if err != nil || m.Type != sync.MsgEstimate || m.Estimates == nil {
		t.Fatalf("second message on the link = %v (err %v), want an estimate", m.Type, err)
	}
	// The figures are leased from the link's decode storage: copy them.
	v.est = sync.Estimates{PerColumn: slices.Clone(m.Estimates.PerColumn), Upvote: m.Estimates.Upvote, Downvote: m.Estimates.Downvote}
	return v
}

// atJoin is the same view taken from the core itself: the master's
// snapshot and the estimator's current figures.
func atJoin(ns *NetServer) joinView {
	var v joinView
	ns.WithCore(func(c *Core) {
		v.snapshot = c.Master().SnapshotText()
		c.Estimator().Current(&v.est)
	})
	return v
}

func sameJoin(t *testing.T, who string, got, want joinView) {
	t.Helper()
	if got.snapshot != want.snapshot {
		t.Errorf("%s: snapshot on the link differs from the master's:\n%s\nmaster:\n%s", who, got.snapshot, want.snapshot)
	}
	if !slices.Equal(got.est.PerColumn, want.est.PerColumn) || got.est.Upvote != want.est.Upvote || got.est.Downvote != want.est.Downvote {
		t.Errorf("%s: estimate on the link %+v, estimator at the join %+v", who, got.est, want.est)
	}
}

// TestJoinCarriesMasterState holds a join's private messages to the state
// they were taken from. Snapshot and estimate are prepared once and encoded
// lazily, when the flusher first writes them, so a write into either after
// it was prepared reaches the wire. Each joiner's link is read as a
// WebSocket peer reads it, decoded from the frames, and compared with the
// master's snapshot and the estimator's figures while nothing else moves:
// one joiner on the fresh table, and one after the first has filled a cell.
func TestJoinCarriesMasterState(t *testing.T) {
	core, err := New(cardinalityConfig(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	ns := NewNetServer(core, nil)
	t.Cleanup(ns.Shutdown)

	first := wsDialer(t, ns, "w1")
	defer first.Close()
	v := readJoin(t, first, ns)
	want := atJoin(ns)
	if want.est.Upvote == 0 || want.est.Downvote == 0 || len(want.est.PerColumn) == 0 {
		t.Fatalf("estimator figures %+v: a zero figure cannot show a write that zeroes it", want.est)
	}
	sameJoin(t, "first joiner", v, want)

	// Move the table through the server, so the second joiner's snapshot is
	// not the first one's.
	mirror, err := client.New(client.Config{ID: "w1", Worker: "w1", Schema: core.cfg.Schema})
	if err != nil {
		t.Fatal(err)
	}
	var snap sync.Message
	ns.WithCore(func(c *Core) { snap = sync.Message{Type: sync.MsgSnapshot, Snapshot: c.Master().TakeSnapshot()} })
	if err := mirror.HandleServer(snap); err != nil {
		t.Fatal(err)
	}
	msgs, err := mirror.Fill(mirror.Rows(nil)[0].ID, 0, "x")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		if err := first.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		n := 0
		ns.WithCore(func(c *Core) { n = len(c.Trace()) })
		return n == len(msgs)
	})

	second := wsDialer(t, ns, "w2")
	defer second.Close()
	v = readJoin(t, second, ns)
	after := atJoin(ns)
	if after.snapshot == want.snapshot {
		t.Fatal("the fill did not move the master (test is vacuous)")
	}
	sameJoin(t, "second joiner", v, after)
}
