package sync

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"crowdfill/internal/model"
)

func testSchema(t testing.TB) *model.Schema {
	t.Helper()
	return model.MustSchema("SoccerPlayer", []model.Column{
		{Name: "name", Type: model.TypeString},
		{Name: "nationality", Type: model.TypeString},
		{Name: "position", Type: model.TypeString},
		{Name: "caps", Type: model.TypeInt},
		{Name: "goals", Type: model.TypeInt},
	}, "name", "nationality")
}

func TestInsertAndFill(t *testing.T) {
	r := NewReplica(testSchema(t))
	if _, err := r.Insert("c1-1"); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if _, err := r.Insert("c1-1"); !errors.Is(err, ErrRowExists) {
		t.Fatalf("duplicate Insert err = %v, want ErrRowExists", err)
	}
	m, err := r.Fill("c1-1", 0, "Messi", "c1-2")
	if err != nil {
		t.Fatalf("Fill: %v", err)
	}
	if m.Type != MsgReplace || m.Row != "c1-1" || m.NewRow != "c1-2" || m.Col != 0 || m.Val != "Messi" {
		t.Fatalf("replace message wrong: %+v", m)
	}
	if r.Table().Has("c1-1") {
		t.Fatalf("old row should be deleted by fill")
	}
	q := r.Table().Get("c1-2")
	if q == nil || !q.Vec[0].Set || q.Vec[0].Val != "Messi" {
		t.Fatalf("new row wrong: %v", q)
	}
	// Filling an already-filled cell fails.
	if _, err := r.Fill("c1-2", 0, "Ronaldo", "c1-3"); !errors.Is(err, ErrCellFilled) {
		t.Fatalf("refill err = %v, want ErrCellFilled", err)
	}
	if _, err := r.Fill("nope", 1, "x", "c1-4"); !errors.Is(err, ErrNoSuchRow) {
		t.Fatalf("missing row err = %v, want ErrNoSuchRow", err)
	}
	if _, err := r.Fill("c1-2", 99, "x", "c1-5"); !errors.Is(err, ErrBadColumn) {
		t.Fatalf("bad column err = %v, want ErrBadColumn", err)
	}
}

// fillAll completes a row through successive fills, returning the final row id.
func fillAll(t testing.TB, r *Replica, g *IDGen, id model.RowID, vals []string) model.RowID {
	t.Helper()
	for col, v := range vals {
		if v == "" || r.Table().Get(id).Vec[col].Set {
			continue
		}
		nid := g.Next()
		if _, err := r.Fill(id, col, v, nid); err != nil {
			t.Fatalf("fill col %d: %v", col, err)
		}
		id = nid
	}
	return id
}

func TestUpvoteDownvoteSemantics(t *testing.T) {
	r := NewReplica(testSchema(t))
	g := NewIDGen("c1")
	id1, _ := r.Insert(g.Next())
	full := fillAll(t, r, g, id1.Row, []string{"Messi", "Argentina", "FW", "83", "37"})

	// Upvote requires a complete row.
	id2, _ := r.Insert(g.Next())
	if _, err := r.Upvote(id2.Row); !errors.Is(err, ErrNotComplete) {
		t.Fatalf("upvote empty row err = %v", err)
	}
	if _, err := r.Downvote(id2.Row); !errors.Is(err, ErrNotPartial) {
		t.Fatalf("downvote empty row err = %v", err)
	}

	if _, err := r.Upvote(full); err != nil {
		t.Fatalf("Upvote: %v", err)
	}
	if got := r.Table().Get(full).Up; got != 1 {
		t.Fatalf("up count = %d, want 1", got)
	}
	if got := r.UH().Get(r.Table().Get(full).Vec); got != 1 {
		t.Fatalf("UH = %d, want 1", got)
	}

	// Downvoting a subset increments every superset row.
	pid, _ := r.Insert(g.Next())
	partial := fillAll(t, r, g, pid.Row, []string{"Messi", "Argentina", "", "", ""})
	if _, err := r.Downvote(partial); err != nil {
		t.Fatalf("Downvote: %v", err)
	}
	if got := r.Table().Get(full).Down; got != 1 {
		t.Fatalf("superset row down = %d, want 1", got)
	}
	if got := r.Table().Get(partial).Down; got != 1 {
		t.Fatalf("downvoted row down = %d, want 1", got)
	}
	if err := r.CheckLemma3(); err != nil {
		t.Fatalf("lemma3: %v", err)
	}
}

// TestFillInheritsHistories: a row completed after votes were cast on its
// value inherits UH[q̄] upvotes and Σ DH[w⊆q̄] downvotes (paper §2.4).
func TestFillInheritsHistories(t *testing.T) {
	r := NewReplica(testSchema(t))
	g := NewIDGen("c1")
	// First copy of the row gets completed and voted.
	a, _ := r.Insert(g.Next())
	fullA := fillAll(t, r, g, a.Row, []string{"Messi", "Argentina", "FW", "83", "37"})
	r.Upvote(fullA)
	r.Upvote(fullA)
	// Downvote a partial value-combination.
	p, _ := r.Insert(g.Next())
	partial := fillAll(t, r, g, p.Row, []string{"Messi", "", "", "", ""})
	r.Downvote(partial)

	// A second copy completed with the same value inherits both counts.
	b, _ := r.Insert(g.Next())
	fullB := fillAll(t, r, g, b.Row, []string{"Messi", "Argentina", "FW", "83", "37"})
	row := r.Table().Get(fullB)
	if row.Up != 2 {
		t.Fatalf("inherited up = %d, want 2 (from UH)", row.Up)
	}
	// Downvotes: DH has {Messi,·,·,·,·}:1 plus the partial row itself got
	// downvoted... subsets of the full vector: the one downvote.
	if row.Down != 1 {
		t.Fatalf("inherited down = %d, want 1 (from DH subset sum)", row.Down)
	}
	if err := r.CheckLemma3(); err != nil {
		t.Fatalf("lemma3: %v", err)
	}
}

// TestConcurrentFillSameRow reproduces the paper's §2.4.1 example: two
// clients fill different columns of the same row concurrently; after both
// messages propagate everywhere, all replicas hold two rows, one per fill,
// rather than a merged row neither client intended.
func TestConcurrentFillSameRow(t *testing.T) {
	schema := testSchema(t)
	server := NewReplica(schema)
	c1 := NewReplica(schema)
	c2 := NewReplica(schema)

	seed, err := server.Insert("cc-1")
	if err != nil {
		t.Fatal(err)
	}
	// Fill the seed row partially on the server side and sync all.
	m2, _ := server.Fill("cc-1", 2, "FW", "cc-2")
	for _, rep := range []*Replica{c1, c2} {
		if err := rep.Apply(seed); err != nil {
			t.Fatal(err)
		}
		if err := rep.Apply(m2); err != nil {
			t.Fatal(err)
		}
	}

	// Concurrently: c1 fills name, c2 fills nationality, both on cc-2.
	f1, err := c1.Fill("cc-2", 0, "Lionel Messi", "c1-1")
	if err != nil {
		t.Fatal(err)
	}
	f2, err := c2.Fill("cc-2", 1, "Brazil", "c2-1")
	if err != nil {
		t.Fatal(err)
	}
	// Server receives f1 then f2; c1 receives f2; c2 receives f1.
	for _, m := range []Message{f1, f2} {
		if err := server.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := c1.Apply(f2); err != nil {
		t.Fatal(err)
	}
	if err := c2.Apply(f1); err != nil {
		t.Fatal(err)
	}

	// All replicas identical, containing two rows (c1-1 and c2-1).
	want := server.SnapshotText()
	if c1.SnapshotText() != want || c2.SnapshotText() != want {
		t.Fatalf("replicas diverged:\nserver:\n%s\nc1:\n%s\nc2:\n%s",
			want, c1.SnapshotText(), c2.SnapshotText())
	}
	if server.Table().Len() != 2 {
		t.Fatalf("table has %d rows, want 2: %v", server.Table().Len(), server.Table().Rows())
	}
	r1 := server.Table().Get("c1-1")
	r2 := server.Table().Get("c2-1")
	if r1 == nil || r2 == nil {
		t.Fatalf("expected rows c1-1 and c2-1, got %v", server.Table().Rows())
	}
	if !r1.Vec.Equal(model.VectorOf("Lionel Messi", "", "FW", "", "")) {
		t.Errorf("c1-1 = %v", r1.Vec)
	}
	if !r2.Vec.Equal(model.VectorOf("", "Brazil", "FW", "", "")) {
		t.Errorf("c2-1 = %v", r2.Vec)
	}
}

func TestApplyReplaceForMissingRowStillInserts(t *testing.T) {
	// Concurrent fills on the same row: the second replace arrives after the
	// original row was already replaced. The new row must still be inserted.
	r := NewReplica(testSchema(t))
	r.Apply(Message{Type: MsgInsert, Row: "x-1"})
	r.Apply(Message{Type: MsgReplace, Row: "x-1", NewRow: "a-1", Vec: model.VectorOf("A", "", "", "", "")})
	err := r.Apply(Message{Type: MsgReplace, Row: "x-1", NewRow: "b-1", Vec: model.VectorOf("", "B", "", "", "")})
	if err != nil {
		t.Fatalf("second replace: %v", err)
	}
	if !r.Table().Has("a-1") || !r.Table().Has("b-1") {
		t.Fatalf("both fill results must exist: %v", r.Table().Rows())
	}
}

func TestApplyErrors(t *testing.T) {
	r := NewReplica(testSchema(t))
	if err := r.Apply(Message{Type: MsgInsert}); err == nil {
		t.Errorf("insert without row id should fail")
	}
	if err := r.Apply(Message{Type: MsgReplace, NewRow: "q", Vec: model.VectorOf("a")}); !errors.Is(err, ErrWidthMismatch) {
		t.Errorf("width mismatch: %v", err)
	}
	if err := r.Apply(Message{Type: MsgReplace, Row: "r", Vec: model.NewVector(5)}); err == nil {
		t.Errorf("replace without new row id should fail")
	}
	if err := r.Apply(Message{Type: MsgUpvote, Vec: model.VectorOf("a")}); !errors.Is(err, ErrWidthMismatch) {
		t.Errorf("upvote width mismatch: %v", err)
	}
	if err := r.Apply(Message{Type: MsgSnapshot}); err == nil {
		t.Errorf("snapshot without payload should fail")
	}
	if err := r.Apply(Message{Type: MsgType(99)}); err == nil {
		t.Errorf("unknown type should fail")
	}
	if err := r.Apply(Message{Type: MsgDone}); err != nil {
		t.Errorf("done should be a no-op: %v", err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	r := NewReplica(testSchema(t))
	g := NewIDGen("c1")
	id, _ := r.Insert(g.Next())
	full := fillAll(t, r, g, id.Row, []string{"Messi", "Argentina", "FW", "83", "37"})
	r.Upvote(full)
	p, _ := r.Insert(g.Next())
	partial := fillAll(t, r, g, p.Row, []string{"Neymar", "", "", "", ""})
	r.Downvote(partial)

	snap := r.TakeSnapshot()
	r2 := NewReplica(r.Schema())
	if err := r2.Apply(Message{Type: MsgSnapshot, Snapshot: snap}); err != nil {
		t.Fatalf("apply snapshot: %v", err)
	}
	if r.SnapshotText() != r2.SnapshotText() {
		t.Fatalf("snapshot round trip diverged:\n%s\nvs\n%s", r.SnapshotText(), r2.SnapshotText())
	}
	// Continued operations stay in sync.
	m, err := r2.Fill(partial, 1, "Brazil", "c2-1")
	if err != nil {
		t.Fatalf("fill after snapshot: %v", err)
	}
	if err := r.Apply(m); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if r.SnapshotText() != r2.SnapshotText() {
		t.Fatalf("post-snapshot op diverged")
	}
}

// TestLoadSnapshotRejectsMismatchedHistory: a history key that carries no
// vector, or one that does not encode to it, is an error that leaves the
// replica as it was — never an entry under a guessed vector, so two keys can
// never merge into one entry.
func TestLoadSnapshotRejectsMismatchedHistory(t *testing.T) {
	messi := model.VectorOf("Messi", "Argentina", "FW", "83", "37")
	neymar := model.VectorOf("Neymar", "", "", "", "")
	for name, s := range map[string]*Snapshot{
		"uh key without vector": {
			UH: map[string]int{messi.Encode(): 2}, UHVecs: map[string]model.Vector{},
		},
		"dh key without vector": {
			DH:     map[string]int{neymar.Encode(): 1, messi.Encode(): 1},
			DHVecs: map[string]model.Vector{neymar.Encode(): neymar},
		},
		"two keys, one vector": {
			UH:     map[string]int{messi.Encode(): 2, neymar.Encode(): 1},
			UHVecs: map[string]model.Vector{messi.Encode(): messi, neymar.Encode(): messi},
		},
		"a null cell keyed as empty string": {
			DH:     map[string]int{model.VectorOf("Neymar", "").Encode(): 1},
			DHVecs: map[string]model.Vector{model.VectorOf("Neymar", "").Encode(): {{Set: true, Val: "Neymar"}, {Set: true}}},
		},
	} {
		r := NewReplica(testSchema(t))
		g := NewIDGen("c1")
		ins, _ := r.Insert(g.Next())
		r.Upvote(fillAll(t, r, g, ins.Row, []string{"Messi", "Argentina", "FW", "83", "37"}))
		before := r.SnapshotText()
		epoch := r.Epoch()
		if err := r.Apply(Message{Type: MsgSnapshot, Snapshot: s}); err == nil {
			t.Errorf("%s: snapshot loaded", name)
		}
		if r.SnapshotText() != before || r.Epoch() != epoch {
			t.Errorf("%s: a rejected snapshot changed the replica:\n%s\nwant:\n%s", name, r.SnapshotText(), before)
		}
	}
}

func TestMessageEncodeDecode(t *testing.T) {
	m := Message{
		Type: MsgReplace, Row: "a-1", NewRow: "a-2",
		Vec:    model.VectorOf("Messi", "", "FW", "", ""),
		Origin: "c1", Worker: "w1", Seq: 7, TS: 123, Col: 2, Val: "FW",
	}
	data, err := EncodeMessage(m)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := decodeMessage(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Type != m.Type || got.Row != m.Row || got.NewRow != m.NewRow ||
		!got.Vec.Equal(m.Vec) || got.Origin != m.Origin || got.Worker != m.Worker ||
		got.Seq != m.Seq || got.TS != m.TS || got.Col != m.Col || got.Val != m.Val {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, m)
	}
	if _, err := decodeMessage([]byte("{bad")); err == nil {
		t.Fatalf("decode of invalid JSON should fail")
	}
	for _, typ := range []MsgType{MsgInsert, MsgReplace, MsgUpvote, MsgDownvote, MsgSnapshot, MsgDone, MsgEstimate, MsgType(42)} {
		if typ.String() == "" {
			t.Errorf("MsgType(%d).String empty", typ)
		}
	}
}

func TestIDGen(t *testing.T) {
	g := NewIDGen("c7")
	a, b := g.Next(), g.Next()
	if a == b {
		t.Fatalf("ids not unique: %s", a)
	}
	if !strings.HasPrefix(string(a), "c7-") {
		t.Fatalf("id prefix wrong: %s", a)
	}
	if a >= b {
		t.Fatalf("ids not lexicographically increasing: %s >= %s", a, b)
	}
}

func TestVoteHist(t *testing.T) {
	h := NewVoteHist()
	v1 := model.VectorOf("a", "", "")
	v2 := model.VectorOf("a", "b", "")
	full := model.VectorOf("a", "b", "c")
	h.Inc(v1)
	h.Inc(v1)
	h.Inc(v2)
	if got := h.Get(v1); got != 2 {
		t.Fatalf("Get = %d, want 2", got)
	}
	if got := h.Get(full); got != 0 {
		t.Fatalf("Get(unvoted) = %d, want 0", got)
	}
	if got := h.SubsetSum(full); got != 3 {
		t.Fatalf("SubsetSum = %d, want 3", got)
	}
	if got := h.SubsetSum(model.VectorOf("a", "x", "y")); got != 2 {
		t.Fatalf("SubsetSum(partial overlap) = %d, want 2", got)
	}
	if h.Len() != 2 {
		t.Fatalf("Len = %d, want 2", h.Len())
	}
	before := h.Snapshot()
	h.Inc(v1)
	n := 0
	h.m.Each(func(v model.Vector, c int) { n += c })
	if n != 4 {
		t.Fatalf("entry total = %d, want 4", n)
	}
	if h.Snapshot() == before {
		t.Fatalf("snapshots should differ after Inc")
	}
}

// TestUndoVotes covers the §8 undo extension: retracting a vote restores
// counts and histories, including for rows constructed later.
func TestUndoVotes(t *testing.T) {
	r := NewReplica(testSchema(t))
	g := NewIDGen("c1")
	id, _ := r.Insert(g.Next())
	full := fillAll(t, r, g, id.Row, []string{"Messi", "Argentina", "FW", "83", "37"})
	r.Upvote(full)
	r.Upvote(full)
	if _, err := r.UndoUpvote(r.Table().Get(full).Vec); err != nil {
		t.Fatalf("UndoUpvote: %v", err)
	}
	if got := r.Table().Get(full).Up; got != 1 {
		t.Fatalf("up after undo = %d, want 1", got)
	}
	if err := r.CheckLemma3(); err != nil {
		t.Fatalf("lemma3 after undo: %v", err)
	}

	p, _ := r.Insert(g.Next())
	partial := fillAll(t, r, g, p.Row, []string{"Messi", "", "", "", ""})
	r.Downvote(partial)
	if got := r.Table().Get(full).Down; got != 1 {
		t.Fatalf("down = %d, want 1", got)
	}
	if _, err := r.UndoDownvote(r.Table().Get(partial).Vec); err != nil {
		t.Fatalf("UndoDownvote: %v", err)
	}
	if got := r.Table().Get(full).Down; got != 0 {
		t.Fatalf("down after undo = %d, want 0", got)
	}
	// A row completed after the undo inherits the corrected counts.
	q, _ := r.Insert(g.Next())
	dup := fillAll(t, r, g, q.Row, []string{"Messi", "Argentina", "FW", "83", "37"})
	row := r.Table().Get(dup)
	if row.Up != 1 || row.Down != 0 {
		t.Fatalf("inherited counts after undo = u%d d%d, want u1 d0", row.Up, row.Down)
	}
	// Width checks.
	if _, err := r.UndoUpvote(model.VectorOf("a")); !errors.Is(err, ErrWidthMismatch) {
		t.Errorf("UndoUpvote width: %v", err)
	}
	if _, err := r.UndoDownvote(model.VectorOf("a")); !errors.Is(err, ErrWidthMismatch) {
		t.Errorf("UndoDownvote width: %v", err)
	}
}

// TestUndoneHistorySnapshotCanonical: a fully-undone vote leaves the replica
// canonically identical to one that never saw the vote.
func TestUndoneHistorySnapshotCanonical(t *testing.T) {
	a := NewReplica(testSchema(t))
	b := NewReplica(testSchema(t))
	ga, gb := NewIDGen("c1"), NewIDGen("c1")
	ia, _ := a.Insert(ga.Next())
	fa := fillAll(t, a, ga, ia.Row, []string{"Messi", "Argentina", "FW", "83", "37"})
	ib, _ := b.Insert(gb.Next())
	fillAll(t, b, gb, ib.Row, []string{"Messi", "Argentina", "FW", "83", "37"})
	a.Upvote(fa)
	a.UndoUpvote(a.Table().Get(fa).Vec)
	if a.SnapshotText() != b.SnapshotText() {
		t.Fatalf("undone vote should be canonically invisible:\n%s\nvs\n%s",
			a.SnapshotText(), b.SnapshotText())
	}
}

// TestReplicaApplyAllocs pins the replica's share of the message path's
// allocation budget. Apply shares the message's vector instead of copying
// it, and the value index and the vote histories key it by hash, so a
// replace allocates only the row it builds, and a vector's first vote, like
// a repeat one, allocates nothing.
func TestReplicaApplyAllocs(t *testing.T) {
	const runs = 100
	vec := func(i int) model.Vector {
		return model.VectorOf(fmt.Sprintf("player %d", i), "Argentina", "FW", "83", "37")
	}
	r := NewReplica(testSchema(t))
	if err := r.Apply(Message{Type: MsgInsert, Row: "c-0"}); err != nil {
		t.Fatal(err)
	}
	replaces := make([]Message, runs+1)
	votes := make([]Message, runs+1)
	for i := range replaces {
		replaces[i] = Message{Type: MsgReplace, Row: model.RowID(fmt.Sprintf("c-%d", i)),
			NewRow: model.RowID(fmt.Sprintf("c-%d", i+1)), Vec: vec(i)}
		votes[i] = Message{Type: MsgUpvote, Vec: vec(-1 - i)}
	}
	apply := func(msgs []Message) func() {
		i := 0
		return func() {
			if err := r.Apply(msgs[i]); err != nil {
				t.Fatal(err)
			}
			i++
		}
	}
	if n := testing.AllocsPerRun(runs, apply(replaces)); n != 1 {
		t.Errorf("Replica.Apply(replace): %v allocs/op, want 1 (the row)", n)
	}
	if n := testing.AllocsPerRun(runs, apply(votes)); n != 0 {
		t.Errorf("Replica.Apply(first vote on a vector): %v allocs/op, want 0", n)
	}
	repeat := Message{Type: MsgUpvote, Vec: replaces[runs].Vec}
	if n := testing.AllocsPerRun(runs, func() { r.Apply(repeat) }); n != 0 {
		t.Errorf("Replica.Apply(repeat vote): %v allocs/op, want 0", n)
	}
	if got := r.Table().Get(replaces[runs].NewRow); got == nil || got.Up != runs+1 {
		t.Fatalf("repeat votes did not reach the row: %v", got)
	}
}

// TestReplicaVoteAllocs: a local vote's message shares the row's vector, so
// upvoting or downvoting a vector the histories already hold allocates
// nothing.
func TestReplicaVoteAllocs(t *testing.T) {
	r := NewReplica(testSchema(t))
	g := NewIDGen("c1")
	ins, _ := r.Insert(g.Next())
	full := fillAll(t, r, g, ins.Row, []string{"Messi", "Argentina", "FW", "83", "37"})
	ins, _ = r.Insert(g.Next())
	partial := fillAll(t, r, g, ins.Row, []string{"Neymar", "", "", "", ""})
	up, err := r.Upvote(full) // first votes create the history entries
	if err != nil {
		t.Fatal(err)
	}
	down, err := r.Downvote(partial)
	if err != nil {
		t.Fatal(err)
	}
	if &up.Vec[0] != &r.Table().Get(full).Vec[0] || &down.Vec[0] != &r.Table().Get(partial).Vec[0] {
		t.Fatal("a vote message copied its row's vector instead of sharing it")
	}
	const runs = 100
	if n := testing.AllocsPerRun(runs, func() { r.Upvote(full) }); n != 0 {
		t.Errorf("Replica.Upvote of a known vector: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(runs, func() { r.Downvote(partial) }); n != 0 {
		t.Errorf("Replica.Downvote of a known vector: %v allocs/op, want 0", n)
	}
	// AllocsPerRun adds one warm-up call to its runs.
	if got := r.Table().Get(full).Up; got != runs+2 {
		t.Errorf("upvotes = %d, want %d", got, runs+2)
	}
	if got := r.Table().Get(partial).Down; got != runs+2 {
		t.Errorf("downvotes = %d, want %d", got, runs+2)
	}
	if err := r.CheckLemma3(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadSnapshotSharesVectors: a joiner's rows and vote histories share
// the snapshot's vectors instead of copying them, and whatever the joiner
// does next leaves the snapshot — which still serves the next joiner —
// encoding to the same bytes.
func TestLoadSnapshotSharesVectors(t *testing.T) {
	r := NewReplica(testSchema(t))
	g := NewIDGen("c1")
	ins, _ := r.Insert(g.Next())
	full := fillAll(t, r, g, ins.Row, []string{"Messi", "Argentina", "FW", "83", "37"})
	r.Upvote(full)
	ins, _ = r.Insert(g.Next())
	partial := fillAll(t, r, g, ins.Row, []string{"Neymar", "", "", "", ""})
	r.Downvote(partial)
	r.Insert(g.Next())

	msg := Message{Type: MsgSnapshot, Snapshot: r.TakeSnapshot()}
	snap := msg.Snapshot
	before := AppendMessage(nil, msg)
	joiner := NewReplica(r.Schema())
	if err := joiner.Apply(msg); err != nil {
		t.Fatal(err)
	}
	for i := range snap.Rows {
		want := &snap.Rows[i]
		got := joiner.Table().Get(want.ID)
		if got == nil || got == want {
			t.Fatalf("row %s: loaded %p from snapshot row %p, want a copy of the row", want.ID, got, want)
		}
		if &got.Vec[0] != &want.Vec[0] {
			t.Errorf("row %s: the loaded row copied the snapshot's vector", want.ID)
		}
	}
	for name, h := range map[string]*VoteHist{"uh": joiner.UH(), "dh": joiner.DH()} {
		vecs := snap.UHVecs
		if name == "dh" {
			vecs = snap.DHVecs
		}
		n := 0
		h.m.Each(func(v model.Vector, _ int) {
			n++
			if w := vecs[v.Encode()]; len(w) == 0 || &v[0] != &w[0] {
				t.Errorf("%s entry %v: the loaded history copied the snapshot's vector", name, v)
			}
		})
		if n != len(vecs) {
			t.Errorf("%s: %d entries loaded from %d", name, n, len(vecs))
		}
	}

	// Votes, undos and a fill on the loaded rows.
	jg := NewIDGen("c2")
	if _, err := joiner.Upvote(full); err != nil {
		t.Fatal(err)
	}
	if _, err := joiner.Downvote(full); err != nil {
		t.Fatal(err)
	}
	if _, err := joiner.UndoDownvote(joiner.Table().Get(partial).Vec); err != nil {
		t.Fatal(err)
	}
	if _, err := joiner.Fill(partial, 1, "Brazil", jg.Next()); err != nil {
		t.Fatal(err)
	}
	if after := AppendMessage(nil, msg); !bytes.Equal(after, before) {
		t.Fatalf("the joiner's operations changed the shared snapshot:\nbefore: %s\n after: %s", before, after)
	}
	next := NewReplica(r.Schema())
	if err := next.Apply(msg); err != nil {
		t.Fatal(err)
	}
	if next.SnapshotText() != r.SnapshotText() {
		t.Fatalf("the next joiner loaded a different state:\n%s\nvs\n%s", next.SnapshotText(), r.SnapshotText())
	}
}
