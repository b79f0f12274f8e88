package pay

import (
	"fmt"
	"math"
	"testing"

	"crowdfill/internal/model"
	"crowdfill/internal/sync"
)

// estimatorFixture is an estimator over an indexed replica of kvSchema with
// a Cardinality(4) template.
func estimatorFixture(t testing.TB, scheme Scheme) (*Estimator, *sync.Replica) {
	t.Helper()
	return indexedEstimator(kvSchema(t), scheme, 4)
}

// current returns the estimates e displays now, in a fresh payload.
func current(e *Estimator) *sync.Estimates {
	out := new(sync.Estimates)
	e.Current(out)
	return out
}

func TestEstimatorUniform(t *testing.T) {
	e, rep := estimatorFixture(t, Uniform)
	e.Join("w1", 0)
	// Before any activity: |C| = 8 empty template cells, |U| = (2-1)*4 = 4,
	// |D| = 0, so each action is worth 10/12.
	cur := current(e)
	want := 10.0 / 12
	for i, got := range cur.PerColumn {
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("PerColumn[%d] = %v, want %v", i, got, want)
		}
	}
	if math.Abs(cur.Upvote-want) > 1e-9 || math.Abs(cur.Downvote-want) > 1e-9 {
		t.Errorf("vote estimates = %v/%v, want %v", cur.Upvote, cur.Downvote, want)
	}

	// Observing a fill records the estimate for the acting worker.
	rep.Insert("cc-1")
	m := sync.Message{Type: sync.MsgReplace, Row: "cc-1", NewRow: "a-1",
		Vec: model.VectorOf("x", ""), Col: 0, Val: "x", Worker: "w1", TS: 5e9}
	got := e.Observe(m)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Observe estimate = %v, want %v", got, want)
	}
	if len(e.Records) != 1 || e.Records[0].Worker != "w1" {
		t.Fatalf("Records = %+v", e.Records)
	}
	if math.Abs(e.PerWorker["w1"]-want) > 1e-9 {
		t.Errorf("PerWorker = %v", e.PerWorker)
	}
}

func TestEstimatorDownvoteGrowsDenominator(t *testing.T) {
	e, rep := estimatorFixture(t, Uniform)
	e.Join("w1", 0)
	rep.Insert("cc-1")
	fill, err := rep.Fill("cc-1", 0, "junk", "a-1")
	if err != nil {
		t.Fatal(err)
	}
	fill.Worker = "w1"
	fill.TS = 1e9
	e.Observe(fill)

	before := current(e).Upvote
	dv := sync.Message{Type: sync.MsgDownvote, Vec: model.VectorOf("junk", ""), Worker: "w1", TS: 2e9}
	e.Observe(dv)
	rep.Apply(dv)
	// One more consistent downvote in the denominator lowers each estimate
	// only after the downvoted row leaves the probable set; at minimum the
	// estimate must not increase.
	after := current(e).Upvote
	if after > before+1e-9 {
		t.Errorf("estimate grew after a downvote: %v -> %v", before, after)
	}
}

func TestEstimatorColumnWeightsConverge(t *testing.T) {
	e, rep := estimatorFixture(t, ColumnWeighted)
	e.Join("w1", 0)
	e.Join("w2", 0)
	// w1 fills column 0 every 2s; w2 fills column 1 every 10s. Gaps are
	// measured against each worker's own previous message, so the two
	// workers' cadences must differ for the weights to separate.
	g := sync.NewIDGen("w")
	ccg := sync.NewIDGen("cc")
	var firstRows []sync.Message
	for i := 0; i < 6; i++ {
		ins, err := rep.Insert(ccg.Next())
		if err != nil {
			t.Fatal(err)
		}
		key := string(rune('a' + i))
		m1, err := rep.Fill(ins.Row, 0, key, g.Next())
		if err != nil {
			t.Fatal(err)
		}
		m1.Worker, m1.TS = "w1", int64(i+1)*2e9
		// Fill already applied m1, as the server applies a message before
		// observing it; the filled row is probable either way.
		e.Observe(m1)
		firstRows = append(firstRows, m1)
	}
	for i, m1 := range firstRows {
		m2, err := rep.Fill(m1.NewRow, 1, "1", g.Next())
		if err != nil {
			t.Fatal(err)
		}
		m2.Worker, m2.TS = "w2", 100e9+int64(i)*10e9
		e.Observe(m2)
	}
	cur := current(e)
	if cur.PerColumn[1] <= cur.PerColumn[0] {
		t.Errorf("slow column should be estimated higher: %v", cur.PerColumn)
	}
}

func TestEstimatorDualKeyPositioning(t *testing.T) {
	s := kvSchema(t)
	e, rep := indexedEstimator(s, DualWeighted, 6)
	e.Join("w1", 0)
	g := sync.NewIDGen("w")
	ccg := sync.NewIDGen("cc")
	// Key values appear with growing gaps: 10s, 20s, 40s.
	ts := int64(0)
	for i, gap := range []int64{10e9, 20e9, 40e9} {
		ins, err := rep.Insert(ccg.Next())
		if err != nil {
			t.Fatal(err)
		}
		ts += gap
		m, err := rep.Fill(ins.Row, 0, string(rune('a'+i)), g.Next())
		if err != nil {
			t.Fatal(err)
		}
		m.Worker, m.TS = "w1", ts
		e.Observe(m)
	}
	if z := e.fitColumnZ(0); z <= 0 {
		t.Fatalf("z should be positive with accelerating gaps, got %v", z)
	}
	// The next key cell (k=4 of 6) sits above the column's flat estimate.
	cur := current(e)
	flatE, rep2 := indexedEstimator(s, ColumnWeighted, 6)
	flatE.Join("w1", 0)
	// Feed the same observations for identical weights.
	g2 := sync.NewIDGen("w")
	ccg2 := sync.NewIDGen("cc")
	ts = 0
	for i, gap := range []int64{10e9, 20e9, 40e9} {
		ins, _ := rep2.Insert(ccg2.Next())
		ts += gap
		m, _ := rep2.Fill(ins.Row, 0, string(rune('a'+i)), g2.Next())
		m.Worker, m.TS = "w1", ts
		flatE.Observe(m)
	}
	flat := current(flatE)
	if cur.PerColumn[0] <= flat.PerColumn[0] {
		t.Errorf("dual estimate for a late key (%v) should exceed flat (%v)",
			cur.PerColumn[0], flat.PerColumn[0])
	}
}

func TestEstimatorIgnoresCCAndAuto(t *testing.T) {
	e, _ := estimatorFixture(t, Uniform)
	if got := e.Observe(sync.Message{Type: sync.MsgUpvote, Auto: true, Worker: "w1", Vec: model.NewVector(2)}); got != 0 {
		t.Errorf("auto-upvote estimate = %v, want 0", got)
	}
	if got := e.Observe(sync.Message{Type: sync.MsgInsert, Row: "cc-9"}); got != 0 {
		t.Errorf("insert estimate = %v, want 0", got)
	}
	if len(e.Records) != 0 {
		t.Errorf("unpaid actions must not be recorded: %+v", e.Records)
	}
}

func TestEstimatorJoinIdempotent(t *testing.T) {
	e, _ := estimatorFixture(t, Uniform)
	e.Join("w1", 5)
	e.Join("w1", 99)
	if e.joinTS["w1"] != 5 {
		t.Errorf("second Join must not overwrite: %v", e.joinTS["w1"])
	}
}

// TestEstimatorTrackPerformance: a worker whose fills never land on probable
// rows watches their estimates shrink; a useful worker's stay put.
func TestEstimatorTrackPerformance(t *testing.T) {
	e, rep := estimatorFixture(t, Uniform)
	e.TrackPerformance(true)
	e.Join("spam", 0)
	e.Join("good", 0)

	// "good" fills a CC row (probable); "spam" sends fills referencing rows
	// that are not probable (fabricated ids).
	rep.Insert("cc-1")
	goodFill, err := rep.Fill("cc-1", 0, "x", "a-1")
	if err != nil {
		t.Fatal(err)
	}
	goodFill.Worker, goodFill.TS = "good", 1e9
	first := e.Observe(goodFill)
	if first <= 0 {
		t.Fatalf("first estimate = %v", first)
	}
	var spamEst float64
	for i := 0; i < 10; i++ {
		m := sync.Message{
			Type: sync.MsgReplace, Row: "ghost", NewRow: model.RowID(fmt.Sprintf("s-%d", i)),
			Vec: model.VectorOf("junk", ""), Col: 0, Val: "junk",
			Worker: "spam", TS: int64(i+2) * 1e9,
		}
		spamEst = e.Observe(m)
	}
	// After ten useless actions, the spammer's factor (2/12) cuts their
	// estimate well below a fresh worker's.
	goodFill2, err := rep.Fill("a-1", 1, "1", "a-2")
	if err != nil {
		t.Fatal(err)
	}
	goodFill2.Worker, goodFill2.TS = "good", 20e9
	goodEst := e.Observe(goodFill2)
	if spamEst >= goodEst/2 {
		t.Fatalf("spam estimate %v should be far below good estimate %v", spamEst, goodEst)
	}
}
