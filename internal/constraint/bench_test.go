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
// state: a vote flips one row out of the probable set (freeing its template),
// a repair reassigns it, the vote is undone, and a second repair settles.
// Votes travel the indexed per-value path, so the replica's share of the cost
// is O(1); the difference between modes is the repair itself. mode=full is
// the full-rebuild spec over the TableIndex (per-repair adjacency rebuild,
// O(|T|·|P|)); mode=incr is the delta-driven engine, whose per-repair cost
// must stay flat in the probable-set size (the acceptance bar: 1000-row cost
// within 3× of the 10-row cost; scripts/bench.sh extracts BENCH_planner.json
// from this benchmark's output).
func BenchmarkPlannerRepair(b *testing.B) {
	for _, mode := range []string{"full", "incr"} {
		for _, n := range []int{10, 100, 1000} {
			for _, tsize := range []int{4, 16} {
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

	// A same-key pair with the lowest row ids (so both start matched), then
	// distinct-key filler rows. All score 0 → all probable (rule 2). Upvoting
	// the pair's first row makes it positive, pushing its partner out of the
	// probable set; undoing restores it — an O(1)-message toggle.
	toggle := mkRow(b, rep, g, "k-pair", "x")
	toggleVec := model.VectorOf("k-pair", "x")
	mkRow(b, rep, g, "k-pair", "y")
	for i := 0; i < n-2; i++ {
		mkRow(b, rep, g, fmt.Sprintf("k%04d", i), "x")
	}

	idx := model.NewTableIndex(rep.Table(), f)
	rep.SetObserver(idx)
	p := NewPlanner(Cardinality(s, tsize), f)
	switch mode {
	case "full":
		p.UseIndex(idx)
	case "incr":
		p.UseIncremental(idx)
	}
	if acts := p.Repair(rep); len(acts) != 0 {
		b.Fatalf("setup repair planned actions: %v", acts)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rep.Upvote(toggle); err != nil {
			b.Fatal(err)
		}
		if acts := p.Repair(rep); len(acts) != 0 {
			b.Fatalf("repair planned actions: %v", acts)
		}
		if _, err := rep.UndoUpvote(toggleVec); err != nil {
			b.Fatal(err)
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
// and the table satisfies the template. scripts/bench.sh records the rows in
// BENCH_planner.json.
func BenchmarkSatisfiedBy(b *testing.B) {
	s := soccerSchema(b)
	positions := []string{"GK", "DF", "MF", "FW"}
	for _, tsize := range []int{20, 200} {
		final := make([]*model.Row, tsize)
		for i := range final {
			final[i] = &model.Row{ID: model.RowID(fmt.Sprintf("r-%04d", i)), Vec: model.VectorOf(
				fmt.Sprintf("player%d", i), fmt.Sprintf("nation%d", i%7), positions[i%4],
				fmt.Sprint(40+i%90), fmt.Sprint(i%60))}
		}
		rows := make([]TemplateRow, tsize/5)
		for i := range rows {
			r := final[i*5].Vec
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
		tmpl = tmpl.WithCardinality(tsize)
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
