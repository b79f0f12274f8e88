package constraint

import (
	"fmt"
	"testing"

	"crowdfill/internal/model"
	"crowdfill/internal/sync"
)

func benchTable(n int) *model.Candidate {
	s := model.MustSchema("T", []model.Column{{Name: "k"}, {Name: "v"}}, "k")
	c := model.NewCandidate(s)
	for i := 0; i < n; i++ {
		vec := model.VectorOf(fmt.Sprintf("k%d", i), "x")
		if i%5 == 0 {
			vec[1] = model.Cell{}
		}
		c.Put(&model.Row{ID: model.RowID(fmt.Sprintf("r-%06d", i)), Vec: vec, Up: i % 3})
	}
	return c
}

func BenchmarkProbable(b *testing.B) {
	for _, n := range []int{20, 200, 2000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			c := benchTable(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Probable(c, model.MajorityShortcut(3))
			}
		})
	}
}

// BenchmarkPlannerRepair measures one Central Client message round at steady
// state: a vote flips one row out of the probable set, a repair runs, the vote
// is undone, and a second repair settles. Votes travel the indexed per-value
// path, so the replica's share of the cost is O(1); the rest is the
// delta-driven engine's repair. The repository benchmark holds the same cost
// in situ as the constraint.repair_p50_ns ledger line.
//
//   - mode=incr: after the first round the toggled row is no longer one a
//     template holds, so a steady round prices a repair with nothing dirty,
//     and any term linear in |T| or |P| outside the augmenting searches shows
//     up undiluted (the acceptance bars: 1000-row cost within 3× of the 10-row
//     cost, rows=1000/tmpl=200 within 2× of rows=1000/tmpl=4).
//   - mode=dirty is the engine when the toggled row is one a template holds,
//     every round: two same-key pairs take turns, and each sits at the top of
//     the matched id range, so the repair re-validates one template, unmatches
//     it, and its augmenting search cascades first-fit through every other
//     holder of the class before it reaches the free row — the longest path a
//     Cardinality template of that size has.
func BenchmarkPlannerRepair(b *testing.B) {
	for _, mode := range []string{"incr", "dirty"} {
		for _, n := range []int{10, 100, 1000} {
			for _, tsize := range []int{4, 16, 200} {
				if tsize+2 > n {
					continue // not enough probable rows: repairs would plan inserts
				}
				b.Run(fmt.Sprintf("mode=%s/rows=%d/tmpl=%d", mode, n, tsize), func(b *testing.B) {
					benchPlannerRepair(b, mode, n, tsize)
				})
			}
		}
	}
}

func benchPlannerRepair(b *testing.B, mode string, n, tsize int) {
	s := model.MustSchema("B", []model.Column{{Name: "k"}, {Name: "v"}}, "k")
	f := model.DefaultScore
	rep := sync.NewReplica(s)
	g := sync.NewIDGen("b")

	// Same-key pairs among distinct-key filler rows. All score 0 → all
	// probable (rule 2). Upvoting a pair's first row makes it positive,
	// pushing its partner out of the probable set; undoing restores it — an
	// O(1)-message toggle. The lowest tsize ids start matched: incr puts
	// one pair first; dirty puts two pairs last among them, so whichever
	// partner returned last is the first free row the other's search meets.
	filler := 0
	mkFiller := func(k int) {
		for ; k > 0; k-- {
			mkRow(b, rep, g, fmt.Sprintf("k%04d", filler), "x")
			filler++
		}
	}
	var toggle [2]model.RowID
	var toggleVec [2]model.Vector
	mkPair := func(i int) {
		key := fmt.Sprintf("k-pair%d", i)
		toggle[i], toggleVec[i] = mkRow(b, rep, g, key, "x"), model.VectorOf(key, "x")
		mkRow(b, rep, g, key, "y")
	}
	pairs := 1
	if mode == "dirty" {
		pairs = 2
		mkFiller(tsize - 4)
	}
	for i := 0; i < pairs; i++ {
		mkPair(i)
	}
	mkFiller(n - 2*pairs - filler)

	p, _ := newPlanner(rep, Cardinality(s, tsize), f)
	if acts := p.Repair(rep); len(acts) != 0 {
		b.Fatalf("setup repair planned actions: %v", acts)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % pairs
		if _, err := rep.Upvote(toggle[k]); err != nil {
			b.Fatal(err)
		}
		if acts := p.Repair(rep); len(acts) != 0 {
			b.Fatalf("repair planned actions: %v", acts)
		}
		if mode == "dirty" && p.LastDirty() != 1 {
			b.Fatalf("round %d re-validated %d templates, want 1", i, p.LastDirty())
		}
		if _, err := rep.UndoUpvote(toggleVec[k]); err != nil {
			b.Fatal(err)
		}
		if acts := p.Repair(rep); len(acts) != 0 {
			b.Fatalf("repair planned actions: %v", acts)
		}
	}
}

var benchPositions = []string{"GK", "DF", "MF", "FW"}

// benchPlayer is the i-th synthetic soccer player of the template benchmarks.
func benchPlayer(i int) model.Vector {
	return model.VectorOf(fmt.Sprintf("player%d", i), fmt.Sprintf("nation%d", i%7), benchPositions[i%4],
		fmt.Sprint(40+i%90), fmt.Sprint(i%60))
}

// benchPredTemplate is the benchmark workloads' values + predicates template
// at size tsize: a fifth of the rows each pin a position, pin a nationality,
// bound caps or bound goals (taken from every fifth benchPlayer), the rest
// are cardinality padding.
func benchPredTemplate(b *testing.B, s *model.Schema, tsize int) Template {
	b.Helper()
	rows := make([]TemplateRow, tsize/5)
	for i := range rows {
		r := benchPlayer(i * 5)
		tr := make(TemplateRow, s.NumColumns())
		switch i % 4 {
		case 0:
			tr[2] = Eq(r[2].Val)
		case 1:
			tr[1] = Eq(r[1].Val)
		case 2:
			tr[3] = Ge(r[3].Val)
		case 3:
			tr[4] = Ge(r[4].Val)
		}
		rows[i] = tr
	}
	tmpl, err := PredTemplate(s, rows...)
	if err != nil {
		b.Fatal(err)
	}
	return tmpl.WithCardinality(tsize)
}

// BenchmarkPlannerProbableEnter measures one new probable row entering: one
// worker message (an insert, or a fill replacing a row with its successor)
// followed by the Repair the Central Client runs after it. The rows worked on
// are surplus — every template row keeps its seeded row — so no template is
// freed and the price is the engine filing the newcomer, which must not
// depend on how many template rows are identical: shape=card is a bare
// Cardinality constraint, shape=pred the 40-predicate + 160-padding template
// of the table200 workload. Five id generators take turns, as five workers'
// clients would, so new ids land inside the sorted adjacency lists and not
// only at their ends. The table is rebuilt every 1 200 messages (200 rows), off
// the clock, to keep the lists at the length a 200-row collection has.
func BenchmarkPlannerProbableEnter(b *testing.B) {
	s := soccerSchema(b)
	for _, c := range []struct {
		shape string
		tmpl  Template
	}{
		{"card", Cardinality(s, 20)},
		{"card", Cardinality(s, 200)},
		{"pred", benchPredTemplate(b, s, 200)},
	} {
		b.Run(fmt.Sprintf("shape=%s/tmpl=%d", c.shape, len(c.tmpl.Rows)), func(b *testing.B) {
			benchProbableEnter(b, s, c.tmpl)
		})
	}
}

func benchProbableEnter(b *testing.B, s *model.Schema, tmpl Template) {
	const workers, perTable = 5, 1200
	f := model.DefaultScore
	var (
		rep  *sync.Replica
		p    *Planner
		gens [workers]*sync.IDGen
		cur  [workers]model.RowID // each worker's row in progress
		col  [workers]int         // its next empty column
		next int                  // players started so far
		vals [workers]model.Vector
	)
	setup := func() {
		rep = sync.NewReplica(s)
		p, _ = newPlanner(rep, tmpl, f)
		cc := sync.NewIDGen("cc")
		for _, a := range p.InitActions() {
			execAction(b, rep, cc, a)
		}
		if acts := p.Repair(rep); len(acts) != 0 {
			b.Fatalf("setup repair planned actions: %v", acts)
		}
		for w := range gens {
			gens[w] = sync.NewIDGen(fmt.Sprintf("w%d", w+1))
			cur[w] = ""
		}
		next = 0
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%perTable == 0 {
			b.StopTimer()
			setup()
			b.StartTimer()
		}
		w := i % workers
		if cur[w] == "" {
			m, err := rep.Insert(gens[w].Next())
			if err != nil {
				b.Fatal(err)
			}
			cur[w], col[w], vals[w] = m.Row, 0, benchPlayer(next)
			next++
		} else {
			id := gens[w].Next()
			if _, err := rep.Fill(cur[w], col[w], vals[w][col[w]].Val, id); err != nil {
				b.Fatal(err)
			}
			cur[w] = id
			if col[w]++; col[w] == s.NumColumns() {
				cur[w] = ""
			}
		}
		if acts := p.Repair(rep); len(acts) != 0 {
			b.Fatalf("repair planned actions: %v", acts)
		}
	}
}

// BenchmarkMatchingAugment measures one Unmatch+Augment cycle on a warm
// matching; the epoch-stamped scratch must keep it allocation-free.
func BenchmarkMatchingAugment(b *testing.B) {
	const n = 200
	adj := make([][]int, n)
	for i := range adj {
		for j := 0; j < n; j++ {
			adj[i] = append(adj[i], j)
		}
	}
	m := MaxMatching(adj, n)
	if m.Size != n {
		b.Fatal("matching broken")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Unmatch(0)
		if !m.Augment(adj, 0) {
			b.Fatal("augment failed")
		}
		m.Size++
	}
}

func BenchmarkMaxMatching(b *testing.B) {
	for _, n := range []int{10, 50, 200} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			// Dense bipartite graph: every template row matches every row.
			adj := make([][]int, n)
			for i := range adj {
				for j := 0; j < n; j++ {
					adj[i] = append(adj[i], j)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if m := MaxMatching(adj, n); m.Size != n {
					b.Fatal("matching broken")
				}
			}
		})
	}
}

var satisfiedSink bool // keeps the measured call live

// BenchmarkSatisfiedBy measures one completion decision on a values +
// predicates template (a quarter of the rows each pin a position, pin a
// nationality, bound caps, bound goals — the rest are cardinality slots)
// against a final table holding 50 % and 100 % of |T| rows. At 50 % the
// answer follows from the row counts alone; at 100 % the matching is built
// and the table satisfies the template. The repository benchmark holds the
// in-situ cost as the constraint.satisfied_by_us ledger line.
func BenchmarkSatisfiedBy(b *testing.B) {
	s := soccerSchema(b)
	for _, tsize := range []int{20, 200} {
		final := make([]*model.Row, tsize)
		for i := range final {
			final[i] = &model.Row{ID: model.RowID(fmt.Sprintf("r-%04d", i)), Vec: benchPlayer(i)}
		}
		tmpl := benchPredTemplate(b, s, tsize)
		for _, pct := range []int{50, 100} {
			b.Run(fmt.Sprintf("tmpl=%d/final=%d", tsize, pct), func(b *testing.B) {
				have := final[:tsize*pct/100]
				if got, want := tmpl.SatisfiedBy(have), pct == 100; got != want {
					b.Fatalf("SatisfiedBy = %v, want %v", got, want)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					satisfiedSink = tmpl.SatisfiedBy(have)
				}
			})
		}
	}
}
