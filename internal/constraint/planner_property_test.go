package constraint

import (
	"fmt"
	"math/rand"
	"testing"

	"crowdfill/internal/model"
	"crowdfill/internal/sync"
)

// TestPlannerMaintainsPRIUnderRandomOps is the §4 guarantee as an executable
// property: whatever valid fills and votes workers throw at the table, after
// every Central Client repair either the PRI holds or the planner has
// (observably) dropped unsatisfiable template rows.
func TestPlannerMaintainsPRIUnderRandomOps(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 5
	}
	for seed := 0; seed < seeds; seed++ {
		runPlannerFuzz(t, int64(seed))
	}
}

func runPlannerFuzz(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := model.MustSchema("T", []model.Column{
		{Name: "k"},
		{Name: "a", Domain: []string{"x", "y", "z"}},
		{Name: "b", Type: model.TypeInt},
	}, "k")
	f := model.MajorityShortcut(3)

	// Random template: a couple of pinned rows plus empty slots.
	var rows []model.Vector
	for i := 0; i < 1+rng.Intn(2); i++ {
		rows = append(rows, model.VectorOf("", []string{"x", "y", "z"}[rng.Intn(3)], ""))
	}
	tmpl, err := ValuesTemplate(s, rows...)
	if err != nil {
		t.Fatalf("seed %d: template: %v", seed, err)
	}
	tmpl = tmpl.WithCardinality(3 + rng.Intn(3))

	rep := sync.NewReplica(s)
	g := sync.NewIDGen("w")
	ccg := sync.NewIDGen("cc")
	p, _ := newPlanner(rep, tmpl, f)

	exec := func(a Action) {
		if a.Kind != ActionInsert {
			return
		}
		ins, err := rep.Insert(ccg.Next())
		if err != nil {
			t.Fatalf("seed %d: cc insert: %v", seed, err)
		}
		cur := ins.Row
		for col, cell := range a.Seed {
			if !cell.Set {
				continue
			}
			m, err := rep.Fill(cur, col, cell.Val, ccg.Next())
			if err != nil {
				t.Fatalf("seed %d: cc fill: %v", seed, err)
			}
			cur = m.NewRow
		}
		if a.Upvote {
			if _, err := rep.Upvote(cur); err != nil {
				t.Fatalf("seed %d: cc upvote: %v", seed, err)
			}
		}
	}
	repair := func() {
		for iter := 0; iter < 100; iter++ {
			actions := p.Repair(rep)
			if len(actions) == 0 {
				return
			}
			for _, a := range actions {
				exec(a)
			}
		}
		t.Fatalf("seed %d: repair did not stabilize", seed)
	}

	for _, a := range p.InitActions() {
		exec(a)
	}
	repair()

	values := []string{"v1", "v2", "v3"}
	for step := 0; step < 150; step++ {
		// One random valid worker operation.
		all := rep.Table().Rows()
		if len(all) == 0 {
			break
		}
		r := all[rng.Intn(len(all))]
		switch rng.Intn(3) {
		case 0: // fill a random empty cell
			empties := []int{}
			for col, cell := range r.Vec {
				if !cell.Set {
					empties = append(empties, col)
				}
			}
			if len(empties) == 0 {
				continue
			}
			col := empties[rng.Intn(len(empties))]
			var val string
			switch col {
			case 0:
				val = fmt.Sprintf("key%d", rng.Intn(8))
			case 1:
				val = []string{"x", "y", "z"}[rng.Intn(3)]
			default:
				val = values[rng.Intn(len(values))]
				val = fmt.Sprint(len(val)) // int column
			}
			if _, err := rep.Fill(r.ID, col, val, g.Next()); err != nil {
				t.Fatalf("seed %d: fill: %v", seed, err)
			}
		case 1:
			if r.Vec.IsComplete() {
				if _, err := rep.Upvote(r.ID); err != nil {
					t.Fatalf("seed %d: upvote: %v", seed, err)
				}
			}
		case 2:
			if r.Vec.IsPartial() {
				if _, err := rep.Downvote(r.ID); err != nil {
					t.Fatalf("seed %d: downvote: %v", seed, err)
				}
			}
		}
		repair()
		if !p.CheckPRI(rep) {
			t.Fatalf("seed %d step %d: PRI violated after repair (removed=%d)",
				seed, step, p.RemovedCount())
		}
	}
}

// TestPlannerIncrementalMatchesScratch: the planner's incremental matching
// must always reach the same (maximum) size a from-scratch computation does.
func TestPlannerIncrementalMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := model.MustSchema("T", []model.Column{{Name: "k"}, {Name: "v"}}, "k")
	f := model.MajorityShortcut(3)
	tmpl := Cardinality(s, 4)

	rep := sync.NewReplica(s)
	g := sync.NewIDGen("w")
	p, _ := newPlanner(rep, tmpl, f)
	for _, a := range p.InitActions() {
		ins, _ := rep.Insert(g.Next())
		_ = a
		_ = ins
	}
	for step := 0; step < 80; step++ {
		rows := rep.Table().Rows()
		if len(rows) > 0 && rng.Intn(2) == 0 {
			r := rows[rng.Intn(len(rows))]
			for col, cell := range r.Vec {
				if !cell.Set {
					rep.Fill(r.ID, col, fmt.Sprintf("v%d", rng.Intn(5)), g.Next())
					break
				}
			}
		} else if len(rows) > 0 {
			r := rows[rng.Intn(len(rows))]
			if r.Vec.IsPartial() {
				rep.Downvote(r.ID)
			}
		}
		p.Repair(rep)
		// From-scratch maximum matching over the same graph.
		prob := Probable(rep.Table(), f)
		act := p.Template()
		adj := make([][]int, len(act.Rows))
		for ti, tr := range act.Rows {
			for pi, row := range prob {
				if act.MatchCandidate(tr, row.Vec) {
					adj[ti] = append(adj[ti], pi)
				}
			}
		}
		want := MaxMatching(adj, len(prob)).Size
		got := 0
		for _, id := range p.Assignment() {
			if id != "" {
				got++
			}
		}
		if got > want {
			t.Fatalf("step %d: incremental matching %d exceeds maximum %d", step, got, want)
		}
	}
}
