package model

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// scratchCheck holds a TableIndex to the from-scratch ProbableRows and
// FinalTable of its table, and its final-winner counter to the from-scratch
// winners: between two checks the counter must move exactly when the winners
// changed.
type scratchCheck struct {
	x     *TableIndex
	final []*Row // from-scratch final table at the previous check
	ver   uint64 // FinalVersion at the previous check
}

func newScratchCheck(x *TableIndex) *scratchCheck {
	return &scratchCheck{x: x, final: FinalTable(x.c, x.f), ver: x.FinalVersion()}
}

func (sc *scratchCheck) check(t *testing.T, step int) {
	t.Helper()
	x := sc.x
	if got, want := x.Probable(), ProbableRows(x.c, x.f); !slices.Equal(got, want) {
		t.Fatalf("step %d: index probable rows %v, from scratch %v", step, rowIDs(got), rowIDs(want))
	}
	final := FinalTable(x.c, x.f)
	if got := x.FinalTable(); !slices.Equal(got, final) {
		t.Fatalf("step %d: index final table %v, from scratch %v", step, rowIDs(got), rowIDs(final))
	}
	ver := x.FinalVersion()
	if moved, changed := ver != sc.ver, !slices.Equal(final, sc.final); moved != changed {
		t.Fatalf("step %d: final-winner counter moved=%v (%d -> %d) but from-scratch winners changed=%v",
			step, moved, sc.ver, ver, changed)
	}
	sc.final, sc.ver = final, ver
}

func rowIDs(rows []*Row) []RowID {
	out := make([]RowID, len(rows))
	for i, r := range rows {
		out[i] = r.ID
	}
	return out
}

// shadowListener reconstructs the probable set purely from delta callbacks,
// so the test can prove the delta stream is sound (no duplicate adds, no
// removes of absent rows) and complete (replaying it yields exactly the set).
type shadowListener struct {
	t      *testing.T
	rows   map[RowID]*Row
	resets int
}

func (l *shadowListener) ProbableAdded(r *Row) {
	if _, ok := l.rows[r.ID]; ok {
		l.t.Fatalf("duplicate ProbableAdded for %s", r.ID)
	}
	l.rows[r.ID] = r
}

func (l *shadowListener) ProbableRemoved(r *Row) {
	if _, ok := l.rows[r.ID]; !ok {
		l.t.Fatalf("ProbableRemoved for absent row %s", r.ID)
	}
	delete(l.rows, r.ID)
}

func (l *shadowListener) ProbableUpdated(r *Row) {
	if _, ok := l.rows[r.ID]; !ok {
		l.t.Fatalf("ProbableUpdated for absent row %s", r.ID)
	}
}

func (l *shadowListener) IndexReset() {
	l.rows = make(map[RowID]*Row)
	l.resets++
}

// TestDeltaListenerTracksProbable drives a TableIndex through a randomized op
// mix (adds, vote changes, removals, full resets) and checks after every
// flush that the listener-reconstructed probable set matches the index's,
// and the index's the from-scratch recomputation.
func TestDeltaListenerTracksProbable(t *testing.T) {
	s := MustSchema("KV", []Column{
		{Name: "k", Type: TypeString},
		{Name: "v", Type: TypeString},
	}, "k")
	c := NewCandidate(s)
	idx := NewTableIndex(c, MajorityShortcut(3))
	sc := newScratchCheck(idx)
	sh := &shadowListener{t: t, rows: make(map[RowID]*Row)}
	idx.AddDeltaListener(sh)

	rng := rand.New(rand.NewSource(3))
	cells := []string{"", "a", "b", "c"}
	nextID := 0

	check := func(step int) {
		t.Helper()
		sc.check(t, step)
		prob := idx.Probable()
		if len(prob) != len(sh.rows) {
			t.Fatalf("step %d: listener holds %d rows, index %d", step, len(sh.rows), len(prob))
		}
		for _, r := range prob {
			if sh.rows[r.ID] != r {
				t.Fatalf("step %d: listener missing probable row %s", step, r.ID)
			}
		}
	}

	for step := 0; step < 600; step++ {
		rows := c.Rows()
		switch op := rng.Intn(10); {
		case op < 4 || len(rows) == 0: // add a row
			nextID++
			r := &Row{
				ID:  RowID(fmt.Sprintf("r-%03d", nextID)),
				Vec: VectorOf(cells[rng.Intn(len(cells))], cells[rng.Intn(len(cells))]),
			}
			c.Put(r)
			idx.RowAdded(r)
		case op < 8: // vote change
			r := rows[rng.Intn(len(rows))]
			if rng.Intn(2) == 0 {
				r.Up++
			} else {
				r.Down++
			}
			idx.RowVotesChanged(r)
		case op < 9: // remove
			r := rows[rng.Intn(len(rows))]
			c.Delete(r.ID)
			idx.RowRemoved(r)
		default: // full rebuild
			idx.TableReset(c)
			if sh.resets == 0 {
				t.Fatalf("step %d: TableReset did not fire IndexReset", step)
			}
		}
		check(step)
	}
	if sh.resets == 0 {
		t.Fatal("op mix never exercised IndexReset")
	}
}

// logEvent is one delta callback observed by a loggingListener.
type logEvent struct {
	listener string
	kind     string
	row      RowID
}

// loggingListener wraps a shadowListener and appends every callback to a
// shared log so tests can assert cross-listener delivery order.
type loggingListener struct {
	shadowListener
	name string
	log  *[]logEvent
}

func (l *loggingListener) ProbableAdded(r *Row) {
	*l.log = append(*l.log, logEvent{l.name, "add", r.ID})
	l.shadowListener.ProbableAdded(r)
}

func (l *loggingListener) ProbableRemoved(r *Row) {
	*l.log = append(*l.log, logEvent{l.name, "remove", r.ID})
	l.shadowListener.ProbableRemoved(r)
}

func (l *loggingListener) ProbableUpdated(r *Row) {
	*l.log = append(*l.log, logEvent{l.name, "update", r.ID})
	l.shadowListener.ProbableUpdated(r)
}

func (l *loggingListener) IndexReset() {
	*l.log = append(*l.log, logEvent{l.name, "reset", ""})
	l.shadowListener.IndexReset()
}

// TestTwoDeltaListeners registers two listeners and checks the multicast
// contract: every delta is delivered to both, in registration order, with
// each delta fully delivered before the next begins — so both shadows track
// the probable set exactly and the shared log alternates a/b pairwise.
func TestTwoDeltaListeners(t *testing.T) {
	s := MustSchema("KV", []Column{
		{Name: "k", Type: TypeString},
		{Name: "v", Type: TypeString},
	}, "k")
	c := NewCandidate(s)
	idx := NewTableIndex(c, MajorityShortcut(3))
	sc := newScratchCheck(idx)

	var log []logEvent
	a := &loggingListener{shadowListener: shadowListener{t: t, rows: make(map[RowID]*Row)}, name: "a", log: &log}
	b := &loggingListener{shadowListener: shadowListener{t: t, rows: make(map[RowID]*Row)}, name: "b", log: &log}
	idx.AddDeltaListener(a)
	idx.AddDeltaListener(b)

	rng := rand.New(rand.NewSource(7))
	cells := []string{"", "a", "b", "c"}
	nextID := 0

	check := func(step int) {
		t.Helper()
		sc.check(t, step)
		prob := idx.Probable()
		for _, sh := range []*loggingListener{a, b} {
			if len(prob) != len(sh.rows) {
				t.Fatalf("step %d: listener %s holds %d rows, index %d", step, sh.name, len(sh.rows), len(prob))
			}
			for _, r := range prob {
				if sh.rows[r.ID] != r {
					t.Fatalf("step %d: listener %s missing probable row %s", step, sh.name, r.ID)
				}
			}
		}
		if len(log)%2 != 0 {
			t.Fatalf("step %d: odd event count %d — a delta skipped a listener", step, len(log))
		}
		for i := 0; i < len(log); i += 2 {
			ea, eb := log[i], log[i+1]
			if ea.listener != "a" || eb.listener != "b" {
				t.Fatalf("step %d: events %d/%d delivered out of registration order: %+v %+v", step, i, i+1, ea, eb)
			}
			if ea.kind != eb.kind || ea.row != eb.row {
				t.Fatalf("step %d: events %d/%d diverge between listeners: %+v %+v", step, i, i+1, ea, eb)
			}
		}
		log = log[:0]
	}

	for step := 0; step < 400; step++ {
		rows := c.Rows()
		switch op := rng.Intn(10); {
		case op < 4 || len(rows) == 0:
			nextID++
			r := &Row{
				ID:  RowID(fmt.Sprintf("r-%03d", nextID)),
				Vec: VectorOf(cells[rng.Intn(len(cells))], cells[rng.Intn(len(cells))]),
			}
			c.Put(r)
			idx.RowAdded(r)
		case op < 8:
			r := rows[rng.Intn(len(rows))]
			if rng.Intn(2) == 0 {
				r.Up++
			} else {
				r.Down++
			}
			idx.RowVotesChanged(r)
		case op < 9:
			r := rows[rng.Intn(len(rows))]
			c.Delete(r.ID)
			idx.RowRemoved(r)
		default:
			idx.TableReset(c)
		}
		check(step)
	}
	if a.resets == 0 || b.resets == 0 {
		t.Fatal("op mix never exercised IndexReset")
	}
}

// TestFinalVersionAcrossReset: the final-winner counter moves only when a
// winner changes — a vote that keeps the winner, and a reset onto a table
// with the very same winning rows, leave it alone; a reset onto a table
// that lost the key moves it. Each step is also checked from scratch.
func TestFinalVersionAcrossReset(t *testing.T) {
	s := MustSchema("KV", []Column{{Name: "k"}, {Name: "v"}}, "k")
	c := NewCandidate(s)
	idx := NewTableIndex(c, DefaultScore)
	sc := newScratchCheck(idx)

	win := &Row{ID: "r-1", Vec: VectorOf("a", "x"), Up: 1}
	c.Put(win)
	idx.RowAdded(win)
	sc.check(t, 0)
	v1 := idx.FinalVersion()
	if v1 == 0 || idx.FinalRows() != 1 {
		t.Fatalf("a positive complete row must become the winner: version %d, rows %d", v1, idx.FinalRows())
	}

	win.Up = 2
	idx.RowVotesChanged(win)
	sc.check(t, 1)
	if got := idx.FinalVersion(); got != v1 {
		t.Fatalf("vote on the standing winner moved the counter: %d -> %d", v1, got)
	}

	idx.TableReset(c)
	sc.check(t, 2)
	if got := idx.FinalVersion(); got != v1 {
		t.Fatalf("reset onto the same winning rows moved the counter: %d -> %d", v1, got)
	}

	idx.TableReset(NewCandidate(s))
	sc.check(t, 3)
	if got := idx.FinalVersion(); got == v1 || idx.FinalRows() != 0 {
		t.Fatalf("reset onto an empty table: version %d -> %d, rows %d", v1, got, idx.FinalRows())
	}
}

// TestTableIndexVoteAllocs pins the index's share of the message path's
// allocation budget: a vote on a key-complete row queues its key group's own
// string, and the flush stores the group's KeyStat by value, so the vote and
// the Version() that flushes it allocate nothing.
func TestTableIndexVoteAllocs(t *testing.T) {
	s := MustSchema("P", []Column{{Name: "name"}, {Name: "nat"}}, "name")
	c := NewCandidate(s)
	for i := 0; i < 20; i++ {
		c.Put(&Row{ID: RowID(fmt.Sprintf("r%d", i)), Vec: VectorOf(fmt.Sprintf("player %d", i), "Argentina")})
	}
	x := NewTableIndex(c, DefaultScore)
	l := &shadowListener{t: t, rows: map[RowID]*Row{}}
	for _, p := range x.Probable() {
		l.rows[p.ID] = p
	}
	x.AddDeltaListener(l)
	r := c.Get("r3")
	vote := func() {
		r.Up++
		x.RowVotesChanged(r)
		x.Version()
	}
	if n := testing.AllocsPerRun(100, vote); n != 0 {
		t.Errorf("a vote on a key-complete row, then Version: %v allocs/op, want 0", n)
	}
	if st, ok := x.KeyStat(r.Vec.KeyOf(s)); !ok || st.Best != r || st.BestScore != r.Up {
		t.Fatalf("KeyStat after the votes = %+v, %v; want %s winning with %d", st, ok, r.ID, r.Up)
	}
}
