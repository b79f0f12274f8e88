package client

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"crowdfill/internal/model"
	"crowdfill/internal/sync"
)

func kvSchema(t testing.TB) *model.Schema {
	t.Helper()
	return model.MustSchema("KV", []model.Column{
		{Name: "k", Type: model.TypeString},
		{Name: "v", Type: model.TypeInt},
	}, "k")
}

func newClient(t testing.TB, opts ...func(*Config)) *Client {
	t.Helper()
	cfg := Config{ID: "c1", Worker: "w1", Schema: kvSchema(t)}
	for _, o := range opts {
		o(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

// seedRow injects a server-originated empty row into the client's replica.
func seedRow(t testing.TB, c *Client, id model.RowID) {
	t.Helper()
	if err := c.HandleServer(sync.Message{Type: sync.MsgInsert, Row: id, Origin: "cc"}); err != nil {
		t.Fatalf("seed insert: %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Worker: "w", Schema: kvSchema(t)}); err == nil {
		t.Errorf("missing ID should fail")
	}
	if _, err := New(Config{ID: "c", Worker: "w"}); err == nil {
		t.Errorf("missing schema should fail")
	}
}

func TestFillValidatesAndAutoUpvotes(t *testing.T) {
	c := newClient(t)
	seedRow(t, c, "cc-1")

	// Bad value for the int column.
	if _, err := c.Fill("cc-1", 1, "abc"); err == nil {
		t.Fatalf("non-integer fill should fail")
	}
	msgs, err := c.Fill("cc-1", 0, "x")
	if err != nil {
		t.Fatalf("Fill: %v", err)
	}
	if len(msgs) != 1 || msgs[0].Type != sync.MsgReplace {
		t.Fatalf("partial fill should yield one replace, got %v", msgs)
	}
	if msgs[0].Origin != "c1" || msgs[0].Worker != "w1" || msgs[0].Seq != 1 {
		t.Fatalf("stamping wrong: %+v", msgs[0])
	}
	// Completing the row triggers the automatic upvote (§3.4).
	msgs, err = c.Fill(msgs[0].NewRow, 1, "07")
	if err != nil {
		t.Fatalf("Fill: %v", err)
	}
	if len(msgs) != 2 || msgs[1].Type != sync.MsgUpvote || !msgs[1].Auto {
		t.Fatalf("completing fill should auto-upvote, got %v", msgs)
	}
	if msgs[0].Val != "7" {
		t.Fatalf("value not canonicalized: %q", msgs[0].Val)
	}
	row := c.Replica().Table().Get(msgs[0].NewRow)
	if row.Up != 1 {
		t.Fatalf("auto-upvote not applied locally: %v", row)
	}
	// The auto-upvote consumed this worker's vote on the row.
	if _, err := c.Upvote(row.ID); !errors.Is(err, ErrAlreadyVoted) {
		t.Fatalf("second vote err = %v, want ErrAlreadyVoted", err)
	}
}

func TestFillByName(t *testing.T) {
	c := newClient(t)
	seedRow(t, c, "cc-1")
	if _, err := c.FillByName("cc-1", "nope", "x"); err == nil {
		t.Fatalf("unknown column should fail")
	}
	msgs, err := c.FillByName("cc-1", "k", "x")
	if err != nil || msgs[0].Col != 0 {
		t.Fatalf("FillByName: %v %v", msgs, err)
	}
}

func TestOneUpvotePerPrimaryKey(t *testing.T) {
	c := newClient(t)
	// Two complete rows share the key "x" (different v).
	srv := sync.NewReplica(kvSchema(t))
	g := sync.NewIDGen("s")
	for _, v := range []string{"1", "2"} {
		ins, _ := srv.Insert(g.Next())
		m1, _ := srv.Fill(ins.Row, 0, "x", g.Next())
		m2, _ := srv.Fill(m1.NewRow, 1, v, g.Next())
		for _, m := range []sync.Message{ins, m1, m2} {
			if err := c.HandleServer(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	rows := c.Rows(nil)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if _, err := c.Upvote(rows[0].ID); err != nil {
		t.Fatalf("first upvote: %v", err)
	}
	if _, err := c.Upvote(rows[1].ID); !errors.Is(err, ErrKeyUpvoted) {
		t.Fatalf("same-key upvote err = %v, want ErrKeyUpvoted", err)
	}
	// A downvote on the second row is still allowed.
	if _, err := c.Downvote(rows[1].ID); err != nil {
		t.Fatalf("downvote: %v", err)
	}
	// But not twice.
	if _, err := c.Downvote(rows[1].ID); !errors.Is(err, ErrAlreadyVoted) {
		t.Fatalf("double downvote err = %v", err)
	}
}

func TestMaxVotesPerRow(t *testing.T) {
	c := newClient(t, func(cfg *Config) { cfg.MaxVotesPerRow = 2 })
	seedRow(t, c, "cc-1")
	m1, _ := c.Fill("cc-1", 0, "x")
	id := m1[0].NewRow
	// Two votes from other workers arrive via the server.
	other := sync.Message{Type: sync.MsgDownvote, Vec: model.VectorOf("x", ""), Origin: "c9", Worker: "w9"}
	c.HandleServer(other)
	c.HandleServer(other)
	if _, err := c.Downvote(id); !errors.Is(err, ErrVoteCapReached) {
		t.Fatalf("vote cap err = %v, want ErrVoteCapReached", err)
	}
}

func TestUndoVote(t *testing.T) {
	c := newClient(t)
	seedRow(t, c, "cc-1")
	m1, _ := c.Fill("cc-1", 0, "x")
	id := m1[0].NewRow
	vec := c.Replica().Table().Get(id).Vec.Clone()

	if _, err := c.UndoVote(vec); !errors.Is(err, ErrNotVoted) {
		t.Fatalf("undo before voting err = %v", err)
	}
	if _, err := c.Downvote(id); err != nil {
		t.Fatal(err)
	}
	m, err := c.UndoVote(vec)
	if err != nil || m.Type != sync.MsgUndownvote {
		t.Fatalf("UndoVote = %+v, %v", m, err)
	}
	if got := c.Replica().Table().Get(id).Down; got != 0 {
		t.Fatalf("down after undo = %d", got)
	}
	// The worker can vote again after undoing.
	if _, err := c.Downvote(id); err != nil {
		t.Fatalf("re-vote after undo: %v", err)
	}
}

// TestVoteChecksAllocationFree: the interface asks VotedOn / VoteDirection
// for every row it renders and every action re-checks the worker's votes;
// the lookups hash the vector where it lies, so they allocate nothing, voted
// on or not. Recording a downvote allocates nothing either (an upvote also
// keeps its primary key's string).
func TestVoteChecksAllocationFree(t *testing.T) {
	c := newClient(t)
	seedRow(t, c, "cc-1")
	m1, _ := c.Fill("cc-1", 0, "a fairly long primary key value")
	id := m1[0].NewRow
	voted := c.Replica().Table().Get(id).Vec.Clone()
	if _, err := c.Downvote(id); err != nil {
		t.Fatal(err)
	}
	fresh := model.VectorOf("another fairly long primary key value", "")
	if !c.VotedOn(voted) || c.VotedOn(fresh) || c.VoteDirection(voted) != -1 {
		t.Fatalf("setup: VotedOn(voted)=%v VotedOn(fresh)=%v direction=%d", c.VotedOn(voted), c.VotedOn(fresh), c.VoteDirection(voted))
	}
	if n := testing.AllocsPerRun(100, func() { c.VotedOn(voted); c.VotedOn(fresh); c.VoteDirection(voted) }); n != 0 {
		t.Errorf("Client.VotedOn/VoteDirection: %v allocs/op, want 0", n)
	}
	vecs := make([]model.Vector, 101)
	for i := range vecs {
		vecs[i] = model.VectorOf(fmt.Sprintf("value %d", i), "")
	}
	i := 0
	if n := testing.AllocsPerRun(100, func() { c.recordVote(vecs[i], votedDown); i++ }); n != 0 {
		t.Errorf("recording a vote: %v allocs/op, want 0", n)
	}
	if c.VoteDirection(vecs[50]) != -1 {
		t.Fatalf("recorded vote on %v not found", vecs[50])
	}
}

func TestUndoUpvoteFreesKey(t *testing.T) {
	c := newClient(t)
	seedRow(t, c, "cc-1")
	m1, _ := c.Fill("cc-1", 0, "x")
	m2, _ := c.Fill(m1[0].NewRow, 1, "1") // auto-upvote fires
	id := m2[0].NewRow
	vec := c.Replica().Table().Get(id).Vec.Clone()
	if _, err := c.UndoVote(vec); err != nil {
		t.Fatalf("undo auto-upvote: %v", err)
	}
	// The key slot is free again.
	if _, err := c.Upvote(id); err != nil {
		t.Fatalf("upvote after undo: %v", err)
	}
}

// TestHandleServerBatch pins HandleServerBatch's contract: messages apply in
// order, a failing message stops the batch with its error, the prefix before
// it stays applied and the suffix after it is not applied.
func TestHandleServerBatch(t *testing.T) {
	insert := func(id model.RowID) sync.Message {
		return sync.Message{Type: sync.MsgInsert, Row: id, Origin: "cc"}
	}
	done := sync.Message{Type: sync.MsgDone}
	cases := []struct {
		name     string
		batch    []sync.Message
		wantErr  error
		want     []model.RowID // rows in the replica afterwards, sorted
		wantDone bool          // whether the trailing done message was applied
	}{
		{"valid", []sync.Message{insert("cc-1"), insert("cc-2"), done}, nil, []model.RowID{"cc-1", "cc-2"}, true},
		// The second insert repeats a row id: the first stays, the third and
		// the done message are never applied.
		{"bad-middle", []sync.Message{insert("cc-1"), insert("cc-1"), insert("cc-3"), done}, sync.ErrRowExists, []model.RowID{"cc-1"}, false},
		{"empty", nil, nil, nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newClient(t)
			err := c.HandleServerBatch(tc.batch)
			if !errors.Is(err, tc.wantErr) || (tc.wantErr == nil) != (err == nil) {
				t.Fatalf("HandleServerBatch error = %v, want %v", err, tc.wantErr)
			}
			var got []model.RowID
			for _, r := range c.Rows(nil) {
				got = append(got, r.ID)
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("rows after the batch = %v, want %v", got, tc.want)
			}
			if c.Done() != tc.wantDone {
				t.Fatalf("Done = %v, want %v", c.Done(), tc.wantDone)
			}
		})
	}
}

func TestDoneBlocksActions(t *testing.T) {
	c := newClient(t)
	seedRow(t, c, "cc-1")
	c.HandleServer(sync.Message{Type: sync.MsgDone})
	if !c.Done() {
		t.Fatalf("Done not set")
	}
	if _, err := c.Fill("cc-1", 0, "x"); !errors.Is(err, ErrDone) {
		t.Fatalf("fill after done err = %v", err)
	}
	if _, err := c.Upvote("cc-1"); !errors.Is(err, ErrDone) {
		t.Fatalf("upvote after done err = %v", err)
	}
}

// TestEstimatesStored: the client keeps its own copy of the figures, so the
// message it was handed — a link's decode storage, reused by the next
// estimate — can change under it without changing Estimates().
func TestEstimatesStored(t *testing.T) {
	c := newClient(t)
	if c.Estimates() != nil {
		t.Fatal("Estimates before the first broadcast must be nil")
	}
	src := &sync.Estimates{PerColumn: []float64{1, 2}, Upvote: 0.5, Downvote: 0.25}
	if err := c.HandleServer(sync.Message{Type: sync.MsgEstimate, Estimates: src}); err != nil {
		t.Fatal(err)
	}
	src.PerColumn[0], src.PerColumn[1], src.Upvote, src.Downvote = 9, 9, 9, 9
	got := c.Estimates()
	if got == nil || got == src || got.PerColumn[0] != 1 || got.PerColumn[1] != 2 || got.Upvote != 0.5 || got.Downvote != 0.25 {
		t.Fatalf("Estimates = %+v after the source changed, want {[1 2] 0.5 0.25}", got)
	}
}

// TestEstimateWithoutPayloadKeepsFigures: an estimate message with no
// payload — the server never sends one, a hostile or buggy peer can —
// leaves the last figures in place instead of erasing them.
func TestEstimateWithoutPayloadKeepsFigures(t *testing.T) {
	c := newClient(t)
	if err := c.HandleServer(sync.Message{Type: sync.MsgEstimate}); err != nil || c.Estimates() != nil {
		t.Fatalf("an empty estimate before any figures: Estimates = %+v, err = %v; want nil", c.Estimates(), err)
	}
	c.HandleServer(sync.Message{Type: sync.MsgEstimate, Estimates: &sync.Estimates{PerColumn: []float64{3}, Upvote: 1}})
	if err := c.HandleServer(sync.Message{Type: sync.MsgEstimate}); err != nil {
		t.Fatal(err)
	}
	if got := c.Estimates(); got == nil || len(got.PerColumn) != 1 || got.PerColumn[0] != 3 || got.Upvote != 1 {
		t.Fatalf("Estimates = %+v after an estimate without payload, want the last figures", got)
	}
}

// TestHandleEstimateAllocs: after the first estimate sized the client's copy,
// taking in another allocates nothing.
func TestHandleEstimateAllocs(t *testing.T) {
	c := newClient(t)
	m := sync.Message{Type: sync.MsgEstimate, Estimates: &sync.Estimates{PerColumn: []float64{0.1, 0.2, 0.3}, Upvote: 0.05, Downvote: 0.04}}
	if err := c.HandleServer(m); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { c.HandleServer(m) }); n != 0 {
		t.Errorf("HandleServer of an estimate after the first: %v allocs/op, want 0", n)
	}
}

func TestRowsShuffleDeterministic(t *testing.T) {
	c := newClient(t)
	for i := 0; i < 8; i++ {
		seedRow(t, c, model.RowID(rune('a'+i))+"-1")
	}
	a := c.Rows(rand.New(rand.NewSource(7)))
	b := c.Rows(rand.New(rand.NewSource(7)))
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("same seed must give same order")
		}
	}
	sorted := c.Rows(nil)
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1].ID > sorted[i].ID {
			t.Fatalf("nil rng must give sorted rows")
		}
	}
}
