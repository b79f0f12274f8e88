package crowd

import (
	"strconv"
	"testing"
	"time"

	"crowdfill/internal/client"
	"crowdfill/internal/model"
	"crowdfill/internal/sync"
)

func TestSoccerPlayersDataset(t *testing.T) {
	d := SoccerPlayers(42, 220)
	if len(d.Rows) != 220 {
		t.Fatalf("rows = %d, want 220", len(d.Rows))
	}
	seen := map[string]bool{}
	for _, r := range d.Rows {
		if !r.IsComplete() {
			t.Fatalf("truth row incomplete: %v", r)
		}
		k := r.KeyOf(d.Schema)
		if seen[k] {
			t.Fatalf("duplicate key: %v", r)
		}
		seen[k] = true
		caps, err := strconv.Atoi(r[3].Val)
		if err != nil || caps < 80 || caps > 99 {
			t.Fatalf("caps out of the paper's [80,99] range: %v", r)
		}
		if _, err := d.Schema.CheckValue(2, r[2].Val); err != nil {
			t.Fatalf("position out of domain: %v", r)
		}
		if _, err := model.CanonicalValue(model.TypeDate, r[5].Val); err != nil {
			t.Fatalf("bad dob: %v", r)
		}
		if r[2].Val == "GK" && r[4].Val != "0" {
			t.Fatalf("goalkeeper with goals: %v", r)
		}
	}
}

func TestSoccerPlayersDeterministic(t *testing.T) {
	a := SoccerPlayers(7, 50)
	b := SoccerPlayers(7, 50)
	for i := range a.Rows {
		if !a.Rows[i].Equal(b.Rows[i]) {
			t.Fatalf("same seed differs at %d", i)
		}
	}
	c := SoccerPlayers(8, 50)
	same := true
	for i := range a.Rows {
		if !a.Rows[i].Equal(c.Rows[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("different seeds should differ")
	}
}

func TestGenericDataset(t *testing.T) {
	s := model.MustSchema("P", []model.Column{
		{Name: "sku", Type: model.TypeString},
		{Name: "cat", Type: model.TypeString, Domain: []string{"a", "b"}},
		{Name: "price", Type: model.TypeFloat},
		{Name: "when", Type: model.TypeDate},
	}, "sku")
	d := Generic(3, s, 60)
	if len(d.Rows) != 60 {
		t.Fatalf("rows = %d", len(d.Rows))
	}
	for _, r := range d.Rows {
		for col := range s.Columns {
			if _, err := s.CheckValue(col, r[col].Val); err != nil {
				t.Fatalf("invalid generated value: %v", err)
			}
		}
	}
}

func TestLookupByKeyAndContains(t *testing.T) {
	d := SoccerPlayers(42, 30)
	row := d.Rows[7]
	partial := model.NewVector(len(row))
	for _, k := range d.Schema.KeyColumns() {
		partial[k] = row[k]
	}
	got := d.LookupByKey(partial)
	if got == nil || !got.Equal(row) {
		t.Fatalf("LookupByKey failed: %v", got)
	}
	if !d.Contains(row) {
		t.Fatalf("Contains failed")
	}
	fake := row.With(0, "Nobody Atall")
	if d.LookupByKey(fake) != nil {
		t.Fatalf("fake key should not resolve")
	}
	if d.Contains(fake) {
		t.Fatalf("fake row should not be contained")
	}
}

// simClient builds a client pre-loaded with rows via server-style messages.
func simClient(t testing.TB, d *Dataset, rows ...model.Vector) *client.Client {
	t.Helper()
	c, err := client.New(client.Config{ID: "c1", Worker: "w1", Schema: d.Schema})
	if err != nil {
		t.Fatal(err)
	}
	g := sync.NewIDGen("cc")
	for _, vec := range rows {
		ins := g.Next()
		if err := c.HandleServer(sync.Message{Type: sync.MsgInsert, Row: ins, Origin: "cc"}); err != nil {
			t.Fatal(err)
		}
		cur := ins
		for col, cell := range vec {
			if !cell.Set {
				continue
			}
			next := g.Next()
			if err := c.HandleServer(sync.Message{
				Type: sync.MsgReplace, Row: cur, NewRow: next,
				Vec: partialUpTo(vec, col), Col: col, Val: cell.Val, Origin: "cc",
			}); err != nil {
				t.Fatal(err)
			}
			cur = next
		}
	}
	return c
}

// partialUpTo returns vec restricted to columns <= col (matching successive
// fills in order).
func partialUpTo(vec model.Vector, col int) model.Vector {
	out := model.NewVector(len(vec))
	for i := 0; i <= col; i++ {
		out[i] = vec[i]
	}
	return out
}

func TestWorkerKnowledgeSampling(t *testing.T) {
	d := SoccerPlayers(42, 200)
	all := NewWorker(Spec{Name: "w", Knowledge: 1.0, Seed: 1}, d)
	if all.KnownRows() != 200 {
		t.Fatalf("full knowledge = %d rows", all.KnownRows())
	}
	none := NewWorker(Spec{Name: "w", Knowledge: 0, Seed: 1}, d)
	if none.KnownRows() != 0 {
		t.Fatalf("zero knowledge = %d rows", none.KnownRows())
	}
	half := NewWorker(Spec{Name: "w", Knowledge: 0.5, Seed: 1}, d)
	if half.KnownRows() < 60 || half.KnownRows() > 140 {
		t.Fatalf("half knowledge = %d rows", half.KnownRows())
	}
}

func TestWorkerFillsKnownEntity(t *testing.T) {
	d := SoccerPlayers(42, 20)
	w := NewWorker(Spec{Name: "w1", Knowledge: 1, FillAccuracy: 1, VoteAccuracy: 1, Seed: 3}, d)
	c := simClient(t, d, model.NewVector(6)) // one empty row
	dec := w.Decide(c)
	if dec.Kind != ActFill || dec.Col != 0 {
		t.Fatalf("expected a name fill, got %+v", dec)
	}
	// The value is a real player name (accuracy 1).
	found := false
	for _, r := range d.Rows {
		if r[0].Val == dec.Value {
			found = true
		}
	}
	if !found {
		t.Fatalf("filled name %q not in truth", dec.Value)
	}
	if dec.Think <= 0 {
		t.Fatalf("think time must be positive")
	}
}

func TestWorkerContinuesPartialRow(t *testing.T) {
	d := SoccerPlayers(42, 20)
	w := NewWorker(Spec{Name: "w1", Knowledge: 1, FillAccuracy: 1, VoteAccuracy: 1, Seed: 3}, d)
	truth := d.Rows[4]
	partial := model.NewVector(6)
	partial[0] = truth[0]
	partial[1] = truth[1]
	c := simClient(t, d, partial)
	dec := w.Decide(c)
	if dec.Kind != ActFill {
		t.Fatalf("expected fill, got %+v", dec)
	}
	if dec.Col != 2 || dec.Value != truth[2].Val {
		t.Fatalf("expected correct position fill, got %+v (truth %v)", dec, truth)
	}
}

func TestWorkerVotesOnCompleteRows(t *testing.T) {
	d := SoccerPlayers(42, 20)
	w := NewWorker(Spec{Name: "w1", Knowledge: 1, FillAccuracy: 1, VoteAccuracy: 1,
		VotePreference: 1, Seed: 3}, d)
	// A correct complete row and a corrupted one.
	good := d.Rows[0]
	bad := d.Rows[1].With(3, "55")
	c := simClient(t, d, good, bad)
	upSeen, downSeen := false, false
	for i := 0; i < 50 && !(upSeen && downSeen); i++ {
		dec := w.Decide(c)
		switch dec.Kind {
		case ActUpvote:
			row := c.Replica().Table().Get(dec.Row)
			if !row.Vec.Equal(good) {
				t.Fatalf("upvoted the corrupted row")
			}
			upSeen = true
		case ActDownvote:
			row := c.Replica().Table().Get(dec.Row)
			if !row.Vec.Equal(bad) {
				t.Fatalf("downvoted the correct row")
			}
			downSeen = true
		}
	}
	if !upSeen || !downSeen {
		t.Fatalf("expected both votes to be proposed (up=%v down=%v)", upSeen, downSeen)
	}
}

func TestWorkerSkipsDecidedRows(t *testing.T) {
	d := SoccerPlayers(42, 20)
	w := NewWorker(Spec{Name: "w1", Knowledge: 1, FillAccuracy: 1, VoteAccuracy: 1,
		VotePreference: 1, Seed: 3}, d)
	c := simClient(t, d, d.Rows[0])
	// Mark the row decided with two external upvotes.
	up := sync.Message{Type: sync.MsgUpvote, Vec: d.Rows[0].Clone(), Origin: "c9", Worker: "w9"}
	c.HandleServer(up)
	c.HandleServer(up)
	for i := 0; i < 20; i++ {
		if dec := w.Decide(c); dec.Kind == ActUpvote {
			t.Fatalf("worker should not pile onto a decided row")
		}
	}
}

func TestWorkerNeverVotesWithZeroPreference(t *testing.T) {
	d := SoccerPlayers(42, 20)
	w := NewWorker(Spec{Name: "w3", Knowledge: 1, FillAccuracy: 1, VoteAccuracy: 1,
		VotePreference: 0, Seed: 3}, d)
	// Only a votable row exists (complete, unvoted by this worker).
	c := simClient(t, d, d.Rows[2])
	for i := 0; i < 30; i++ {
		if dec := w.Decide(c); dec.Kind == ActUpvote || dec.Kind == ActDownvote {
			t.Fatalf("zero-preference worker voted: %+v", dec)
		}
	}
}

func TestWorkerResearchDownvotesFabrication(t *testing.T) {
	d := SoccerPlayers(42, 20)
	w := NewWorker(Spec{Name: "w1", Knowledge: 0, FillAccuracy: 1, VoteAccuracy: 1,
		VotePreference: 1, ResearchProb: 1, Seed: 3}, d)
	fake := d.Rows[0].With(0, "Invented Person")
	c := simClient(t, d, fake)
	sawDown := false
	for i := 0; i < 30 && !sawDown; i++ {
		if dec := w.Decide(c); dec.Kind == ActDownvote {
			sawDown = true
		}
	}
	if !sawDown {
		t.Fatalf("research should downvote a fabricated row")
	}
}

func TestWorkerReconsiders(t *testing.T) {
	d := SoccerPlayers(42, 20)
	w := NewWorker(Spec{Name: "w1", Knowledge: 1, FillAccuracy: 1, VoteAccuracy: 1,
		VotePreference: 1, ReconsiderProb: 1, Seed: 3}, d)
	good := d.Rows[0]
	c := simClient(t, d, good)
	rows := c.Rows(nil)
	// The worker mistakenly downvoted the correct row; an external up and
	// down make it contested.
	if _, err := c.Downvote(rows[0].ID); err != nil {
		t.Fatal(err)
	}
	c.HandleServer(sync.Message{Type: sync.MsgUpvote, Vec: good.Clone(), Origin: "c9"})
	sawReconsider := false
	for i := 0; i < 30; i++ {
		dec := w.Decide(c)
		if dec.Kind == ActReconsider {
			if !dec.Up {
				t.Fatalf("reconsideration should flip to an upvote")
			}
			sawReconsider = true
			break
		}
	}
	if !sawReconsider {
		t.Fatalf("worker never reconsidered the contested row")
	}
}

func TestSpammerBehavior(t *testing.T) {
	d := SoccerPlayers(42, 20)
	w := NewWorker(Spec{Name: "spam", Spammer: true, Seed: 3}, d)
	c := simClient(t, d, model.NewVector(6))
	dec := w.Decide(c)
	if dec.Kind != ActFill {
		t.Fatalf("spammer should fill the empty table, got %+v", dec)
	}
	if dec.Think > 3*time.Second {
		t.Fatalf("spammers are fast, got think=%v", dec.Think)
	}
	// Spam values are syntactically valid for the schema.
	if _, err := d.Schema.CheckValue(dec.Col, dec.Value); err != nil {
		t.Fatalf("spam value invalid: %v", err)
	}
}

func TestWorkerIdlesOnUnknownTable(t *testing.T) {
	d := SoccerPlayers(42, 20)
	w := NewWorker(Spec{Name: "w1", Knowledge: 0, FillAccuracy: 1, VoteAccuracy: 1, Seed: 3}, d)
	c := simClient(t, d, model.NewVector(6))
	dec := w.Decide(c)
	if dec.Kind != ActIdle {
		t.Fatalf("knowledge-free worker should idle, got %+v", dec)
	}
	if dec.Think <= 0 {
		t.Fatalf("idle must still wait")
	}
}

func TestJitterMeanPreserving(t *testing.T) {
	d := SoccerPlayers(42, 5)
	w := NewWorker(Spec{Name: "w", Seed: 9, LatencySigma: 0.6}, d)
	var sum time.Duration
	const n = 5000
	for i := 0; i < n; i++ {
		v := w.jitter(10 * time.Second)
		if v <= 0 {
			t.Fatalf("nonpositive think time")
		}
		sum += v
	}
	mean := sum / n
	if mean < 8*time.Second || mean > 12*time.Second {
		t.Fatalf("lognormal jitter mean = %v, want ~10s", mean)
	}
}

func TestWorkerDefaultTimes(t *testing.T) {
	d := SoccerPlayers(42, 10)
	w := NewWorker(Spec{Name: "w", Knowledge: 1, FillAccuracy: 1, Seed: 1}, d)
	// No FillTime/VoteTime configured: defaults apply.
	if got := w.fillMean(0); got != 8*time.Second {
		t.Fatalf("default fill mean = %v", got)
	}
	if got := w.voteMean(); got != 4*time.Second {
		t.Fatalf("default vote mean = %v", got)
	}
	w2 := NewWorker(Spec{Name: "w", FillTime: []time.Duration{time.Second}, VoteTime: 2 * time.Second, Seed: 1}, d)
	if got := w2.fillMean(0); got != time.Second {
		t.Fatalf("configured fill mean = %v", got)
	}
	if got := w2.fillMean(5); got != 8*time.Second {
		t.Fatalf("out-of-range fill mean = %v", got)
	}
	if got := w2.voteMean(); got != 2*time.Second {
		t.Fatalf("configured vote mean = %v", got)
	}
	if got := w2.Jitter(10 * time.Second); got <= 0 {
		t.Fatalf("Jitter = %v", got)
	}
}

func TestWrongValueStaysValid(t *testing.T) {
	d := SoccerPlayers(42, 10)
	w := NewWorker(Spec{Name: "w", Knowledge: 1, FillAccuracy: 0, Seed: 1}, d)
	// Accuracy zero: every valueFor call goes through wrongValue; results
	// must still validate against the schema (domains, types).
	truth := d.Rows[0]
	for col := range d.Schema.Columns {
		for i := 0; i < 20; i++ {
			v := w.valueFor(truth, col)
			if _, err := d.Schema.CheckValue(col, v); err != nil {
				t.Fatalf("wrong value invalid for column %d: %v", col, err)
			}
		}
	}
	// Domain columns avoid the correct value when alternatives exist.
	same := 0
	for i := 0; i < 50; i++ {
		if w.valueFor(truth, 2) == truth[2].Val {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("wrong position equals truth %d/50 times", same)
	}
}

func TestTruthSupportsAndConflicts(t *testing.T) {
	d := SoccerPlayers(42, 10)
	w := NewWorker(Spec{Name: "w", Knowledge: 1, Seed: 1}, d)
	truth := d.Rows[3]
	partial := model.NewVector(6)
	partial[0] = truth[0]
	if !w.truthSupports(partial) {
		t.Fatalf("real partial should be supported")
	}
	fake := partial.With(0, "Madeup Person")
	if w.truthSupports(fake) {
		t.Fatalf("fabricated partial should not be supported")
	}
	// A conflict needs a complete key.
	if w.lookupFacts(partial).conflict {
		t.Fatalf("key-incomplete rows cannot conflict")
	}
	keyed := model.NewVector(6)
	keyed[0], keyed[1] = truth[0], truth[1]
	keyed[3] = model.Cell{Set: true, Val: "1"} // wrong caps
	if !w.lookupFacts(keyed).conflict {
		t.Fatalf("wrong caps should conflict with knowledge")
	}
	good := keyed.With(3, truth[3].Val)
	if w.lookupFacts(good).conflict {
		t.Fatalf("consistent partial should not conflict")
	}
}

func TestSpammerVotes(t *testing.T) {
	d := SoccerPlayers(42, 10)
	w := NewWorker(Spec{Name: "spam", Spammer: true, Seed: 5}, d)
	// A complete table (nothing to fill): the spammer votes randomly or idles.
	c := simClient(t, d, d.Rows[0], d.Rows[1])
	votes, idles := 0, 0
	for i := 0; i < 100; i++ {
		switch w.Decide(c).Kind {
		case ActUpvote, ActDownvote:
			votes++
		case ActIdle:
			idles++
		case ActFill:
			t.Fatalf("nothing to fill")
		}
	}
	if votes == 0 {
		t.Fatalf("spammer never voted (idles=%d)", idles)
	}
}

func TestMatchKnown(t *testing.T) {
	d := SoccerPlayers(42, 10)
	w := NewWorker(Spec{Name: "w", Knowledge: 1, Seed: 1}, d)
	truth := d.Rows[2]
	partial := model.NewVector(6)
	partial[1] = truth[1]
	partial[2] = truth[2]
	got := w.matchKnownFresh(partial, w.lookupFacts(partial).cands, nil)
	if got == nil || !partial.Subset(got) {
		t.Fatalf("matchKnownFresh = %v", got)
	}
	impossible := partial.With(0, "Nobody Real")
	if w.matchKnownFresh(impossible, w.lookupFacts(impossible).cands, nil) != nil {
		t.Fatalf("impossible vector matched")
	}
}
