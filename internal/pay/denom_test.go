package pay

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"crowdfill/internal/constraint"
	"crowdfill/internal/model"
	"crowdfill/internal/sync"
)

// TestIncrementalDenominatorMatchesScan holds the estimator's index-driven
// bookkeeping to a scan over a randomized op mix. After every step the index's
// probable rows must equal a from-scratch ProbableRows, and the |U| and |D|
// tallies the estimator prices with must equal a scan of those rows and of
// the downvotes observed so far. Each observed action must count as useful
// exactly when the scan says it is. This includes a snapshot reload that
// forces an index rebuild. Tallies and usefulness are the only inputs the
// index supplies; the estimates are arithmetic on them (see
// TestCurrentIndexedMatchesPerCallEstimates).
func TestIncrementalDenominatorMatchesScan(t *testing.T) {
	s := kvSchema(t)
	score := model.MajorityShortcut(3)
	e, rep := indexedEstimator(s, DualWeighted, 4)

	workers := []string{"w1", "w2", "w3"}
	for _, w := range workers {
		e.Join(w, 0)
	}

	rng := rand.New(rand.NewSource(11))
	gen := sync.NewIDGen("n")
	vals := []string{"ada", "bob", "cyd"}
	var ts int64
	var downvoted []model.Vector // every downvote observed, repeats included
	covered := func(prob []*model.Row, v model.Vector) bool {
		return slices.ContainsFunc(prob, func(p *model.Row) bool { return p.Vec.Superset(v) })
	}

	compare := func(step int) {
		t.Helper()
		prob := e.idx.Probable()
		if want := model.ProbableRows(rep.Table(), score); !slices.Equal(prob, want) {
			t.Fatalf("step %d: index holds %d probable rows, from scratch %d", step, len(prob), len(want))
		}
		wantU := (e.umin - 1) * 4
		for _, p := range prob {
			if extra := p.Up - (e.umin - 1); p.Vec.IsComplete() && extra > 0 {
				wantU += extra
			}
		}
		wantD := 0
		for _, v := range downvoted {
			if !covered(prob, v) {
				wantD++
			}
		}
		if _, estU, estD := e.counts(); estU != wantU || estD != wantD {
			t.Fatalf("step %d: |U| = %d, |D| = %d; scan %d, %d", step, estU, estD, wantU, wantD)
		}
	}

	var useful, downvotes int
	for step := 0; step < 300; step++ {
		m, ok := randomOp(rep, rng, gen, vals)
		if !ok {
			continue
		}
		m.Worker = workers[rng.Intn(len(workers))]
		ts += int64(1+rng.Intn(5)) * 1e9
		m.TS = ts

		prob := e.idx.Probable()
		var want bool
		switch m.Type {
		case sync.MsgReplace:
			want = slices.ContainsFunc(prob, func(p *model.Row) bool { return p.ID == m.Row || p.ID == m.NewRow })
		case sync.MsgUpvote:
			want = slices.ContainsFunc(prob, func(p *model.Row) bool { return p.Vec.Equal(m.Vec) })
		case sync.MsgDownvote:
			want = !covered(prob, m.Vec)
			downvoted = append(downvoted, m.Vec)
			downvotes++
		default:
			// Inserts and undos are unpaid: never useful.
		}
		before := e.workerUseful[m.Worker]
		e.Observe(m)
		if got := e.workerUseful[m.Worker] != before; got != want {
			t.Fatalf("step %d (%v): counted useful = %v, scan says %v", step, m.Type, got, want)
		}
		if want {
			useful++
		}
		compare(step)

		// Occasionally reload the whole state: the index rebuilds from
		// scratch and the tracker must resynchronize through IndexReset.
		if step%97 == 96 {
			if err := rep.LoadSnapshot(rep.TakeSnapshot()); err != nil {
				t.Fatalf("step %d: reload: %v", step, err)
			}
			compare(step)
		}
	}
	if useful == 0 || useful == len(e.Records) || downvotes == 0 {
		t.Fatalf("op mix too tame: %d of %d paid actions useful, %d downvotes", useful, len(e.Records), downvotes)
	}
}

// indexedEstimator returns an estimator attached to a TableIndex over a fresh
// replica, for a Cardinality(tmplRows) template on s.
func indexedEstimator(s *model.Schema, scheme Scheme, tmplRows int) (*Estimator, *sync.Replica) {
	score := model.MajorityShortcut(3)
	rep := sync.NewReplica(s)
	idx := model.NewTableIndex(rep.Table(), score)
	rep.SetObserver(idx)
	return NewEstimator(s, score, scheme, 10, constraint.Cardinality(s, tmplRows), 0, idx), rep
}

// randomOp performs one random primitive operation on rep — insert, fill,
// upvote, downvote or a vote undo — and returns its message; ok is false
// when the drawn operation had no legal target.
func randomOp(rep *sync.Replica, rng *rand.Rand, gen *sync.IDGen, vals []string) (sync.Message, bool) {
	rows := rep.Table().Rows()
	if len(rows) == 0 || rng.Intn(8) == 0 {
		m, err := rep.Insert(gen.Next())
		return m, err == nil
	}
	row := rows[rng.Intn(len(rows))]
	switch rng.Intn(5) {
	case 0, 1:
		for ci := range row.Vec {
			if !row.Vec[ci].Set {
				m, err := rep.Fill(row.ID, ci, vals[rng.Intn(len(vals))], gen.Next())
				return m, err == nil
			}
		}
		return sync.Message{}, false
	case 2:
		m, err := rep.Upvote(row.ID)
		return m, err == nil
	case 3:
		m, err := rep.Downvote(row.ID)
		return m, err == nil
	default:
		var m sync.Message
		var err error
		if rng.Intn(2) == 0 {
			m, err = rep.UndoUpvote(row.Vec)
		} else {
			m, err = rep.UndoDownvote(row.Vec)
		}
		return m, err == nil
	}
}

// TestCurrentIndexedMatchesPerCallEstimates: the displayed payload derives
// every figure from one denominator; the per-action estimators still
// compute theirs per call. Over random fills, votes and undos, under every
// scheme, each payload figure must equal the per-call one bit for bit — the
// payload's wire bytes and the simulator's traces depend on it.
func TestCurrentIndexedMatchesPerCallEstimates(t *testing.T) {
	for _, scheme := range []Scheme{Uniform, ColumnWeighted, DualWeighted} {
		t.Run(scheme.String(), func(t *testing.T) {
			e, rep := indexedEstimator(kvSchema(t), scheme, 4)

			rng := rand.New(rand.NewSource(int64(7 + scheme)))
			gen := sync.NewIDGen("n")
			vals := []string{"ada", "bob", "cyd", "dee"}
			workers := []string{"w1", "w2", "w3"}
			var ts int64
			for step := 0; step < 400; step++ {
				m, ok := randomOp(rep, rng, gen, vals)
				if !ok {
					continue
				}
				m.Worker = workers[rng.Intn(len(workers))]
				ts += int64(1+rng.Intn(5)) * 1e9
				m.TS = ts
				e.Observe(m)

				got := new(sync.Estimates)
				e.Current(got)
				for ci, g := range got.PerColumn {
					if want := e.estimateFill(ci); math.Float64bits(g) != math.Float64bits(want) {
						t.Fatalf("step %d: PerColumn[%d] = %v, estimateFill = %v", step, ci, g, want)
					}
				}
				if want := e.estimateVote(true); math.Float64bits(got.Upvote) != math.Float64bits(want) {
					t.Fatalf("step %d: Upvote = %v, estimateVote = %v", step, got.Upvote, want)
				}
				if want := e.estimateVote(false); math.Float64bits(got.Downvote) != math.Float64bits(want) {
					t.Fatalf("step %d: Downvote = %v, estimateVote = %v", step, got.Downvote, want)
				}
			}
		})
	}
}

// TestEstimatorHotPathAllocs pins the estimator's share of the message
// path's allocation budget: the exact-value usefulness check is free, and
// filling a caller's payload that is already wide enough allocates nothing.
func TestEstimatorHotPathAllocs(t *testing.T) {
	e, rep := indexedEstimator(kvSchema(t), ColumnWeighted, 4)
	ins, err := rep.Insert("r1")
	if err != nil {
		t.Fatal(err)
	}
	fill, err := rep.Fill(ins.Row, 0, "ada", "r2")
	if err != nil {
		t.Fatal(err)
	}
	fill.Worker, fill.TS = "w1", 3e9
	e.Observe(fill)
	if !e.inc.hasVec(fill.Vec) {
		t.Fatalf("setup: %v is not probable", fill.Vec)
	}

	if n := testing.AllocsPerRun(100, func() { e.inc.hasVec(fill.Vec) }); n != 0 {
		t.Errorf("denomTracker.hasVec: %v allocs/op, want 0", n)
	}
	var est sync.Estimates
	if n := testing.AllocsPerRun(100, func() { e.Current(&est) }); n != 0 {
		t.Errorf("Estimator.Current: %v allocs/op, want 0", n)
	}

	// A value's first probable row costs the tracker no entry of its own:
	// its byVec count is keyed by the row's vector.
	tr := newDenomTracker(2)
	tr.addDownvote(model.VectorOf("", "1")) // one cover for every delta to walk
	rows := make([]*model.Row, 101)
	for i := range rows {
		rows[i] = &model.Row{ID: model.RowID(fmt.Sprintf("p%d", i)), Vec: model.VectorOf(fmt.Sprintf("value %d", i), "1")}
	}
	i := 0
	if n := testing.AllocsPerRun(100, func() { tr.ProbableAdded(rows[i]); i++ }); n != 0 {
		t.Errorf("denomTracker.ProbableAdded of a new value: %v allocs/op, want 0", n)
	}
	if !tr.hasVec(rows[50].Vec) || tr.nCons != 0 {
		t.Fatalf("after the adds: hasVec = %v, nCons = %d; want true, 0", tr.hasVec(rows[50].Vec), tr.nCons)
	}
}

// TestDenomTrackerDownvoteCovers pins the |D| maintenance rules: a downvote
// consistent with all probable rows counts immediately, a covered one starts
// counting when its last covering row leaves, and repeat downvotes of one
// vector carry multiplicity.
func TestDenomTrackerDownvoteCovers(t *testing.T) {
	tr := newDenomTracker(2)
	rowA := &model.Row{ID: "a", Vec: model.VectorOf("x", "1")}
	tr.ProbableAdded(rowA)

	if consistent := tr.addDownvote(model.VectorOf("x", "")); consistent {
		t.Fatal("downvote covered by a probable superset must be inconsistent")
	}
	if tr.nCons != 0 {
		t.Fatalf("nCons = %d, want 0", tr.nCons)
	}
	if consistent := tr.addDownvote(model.VectorOf("y", "")); !consistent {
		t.Fatal("uncovered downvote must be consistent")
	}
	// Second downvote of the same vector: multiplicity 2.
	tr.addDownvote(model.VectorOf("y", ""))
	if tr.nCons != 2 {
		t.Fatalf("nCons = %d, want 2", tr.nCons)
	}
	// rowA leaves: its cover releases the ("x","") downvote.
	tr.ProbableRemoved(rowA)
	if tr.nCons != 3 {
		t.Fatalf("nCons after removal = %d, want 3", tr.nCons)
	}
	// rowA returns: covered again.
	tr.ProbableAdded(rowA)
	if tr.nCons != 2 {
		t.Fatalf("nCons after re-add = %d, want 2", tr.nCons)
	}
}

// TestDenomTrackerSurplus pins the |U| surplus rule: complete probable rows
// contribute max(0, up−(umin−1)), tracked through vote updates and removal.
func TestDenomTrackerSurplus(t *testing.T) {
	tr := newDenomTracker(2)
	row := &model.Row{ID: "r", Vec: model.VectorOf("x", "1"), Up: 1}
	tr.ProbableAdded(row)
	if tr.sumU != 0 {
		t.Fatalf("sumU = %d, want 0 (up == umin-1)", tr.sumU)
	}
	row.Up = 4
	tr.ProbableUpdated(row)
	if tr.sumU != 3 {
		t.Fatalf("sumU = %d, want 3", tr.sumU)
	}
	incomplete := &model.Row{ID: "i", Vec: model.VectorOf("y", ""), Up: 9}
	tr.ProbableAdded(incomplete)
	if tr.sumU != 3 {
		t.Fatalf("incomplete rows must not add surplus: sumU = %d", tr.sumU)
	}
	tr.ProbableRemoved(row)
	if tr.sumU != 0 {
		t.Fatalf("sumU after removal = %d, want 0", tr.sumU)
	}
}

// BenchmarkCurrentIndexed prices one displayed estimate payload — what the
// server computes after every handled message — on a column-weighted
// estimator that has latency samples for some columns and falls back to
// their median for the rest.
func BenchmarkCurrentIndexed(b *testing.B) {
	s := model.MustSchema("P", []model.Column{
		{Name: "name"}, {Name: "nat"}, {Name: "pos"}, {Name: "caps"}, {Name: "goals"},
	}, "name", "nat")
	e, rep := indexedEstimator(s, ColumnWeighted, 20)
	gen := sync.NewIDGen("n")
	var ts int64
	for row := 0; row < 20; row++ {
		ins, err := rep.Insert(gen.Next())
		if err != nil {
			b.Fatal(err)
		}
		id := ins.Row
		for col := 0; col < 3; col++ { // caps and goals never get a sample
			m, err := rep.Fill(id, col, fmt.Sprintf("v%d-%d", row, col), gen.Next())
			if err != nil {
				b.Fatal(err)
			}
			ts += int64(2+col) * 1e9
			m.Worker, m.TS = "w1", ts
			e.Observe(m)
			id = m.NewRow
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Current(&estimatesSink)
	}
}

var estimatesSink sync.Estimates
