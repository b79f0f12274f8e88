package constraint

import (
	"testing"

	"crowdfill/internal/model"
	"crowdfill/internal/sync"
)

// newPlanner wires a planner to a replica the way server.Core does: a
// TableIndex observing the replica feeds the planner's repair engine.
func newPlanner(rep *sync.Replica, tmpl Template, score model.ScoreFunc) (*Planner, *model.TableIndex) {
	idx := model.NewTableIndex(rep.Table(), score)
	rep.SetObserver(idx)
	return NewPlanner(tmpl, score, idx), idx
}

// execAction applies a planner action to the replica the way the Central
// Client does: insert, then fill the seed's cells, then optionally upvote.
// Returns the final row id (or "" for removals).
func execAction(t testing.TB, rep *sync.Replica, g *sync.IDGen, a Action) model.RowID {
	t.Helper()
	if a.Kind != ActionInsert {
		return ""
	}
	m, err := rep.Insert(g.Next())
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	cur := m.Row
	for col, cell := range a.Seed {
		if !cell.Set {
			continue
		}
		nid := g.Next()
		if _, err := rep.Fill(cur, col, cell.Val, nid); err != nil {
			t.Fatalf("seed fill: %v", err)
		}
		cur = nid
	}
	if a.Upvote {
		if _, err := rep.Upvote(cur); err != nil {
			t.Fatalf("seed upvote: %v", err)
		}
	}
	return cur
}

// mkRow builds a row in the replica via insert+fills, returning its final id.
func mkRow(t testing.TB, rep *sync.Replica, g *sync.IDGen, vals ...string) model.RowID {
	t.Helper()
	m, err := rep.Insert(g.Next())
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	cur := m.Row
	for col, v := range vals {
		if v == "" {
			continue
		}
		nid := g.Next()
		if _, err := rep.Fill(cur, col, v, nid); err != nil {
			t.Fatalf("fill: %v", err)
		}
		cur = nid
	}
	return cur
}

// TestPlannerFigure4 walks the paper's §4.3 example: the bipartite matching
// survives one repair via an augmenting path (Figure 4b–d) and requires a
// row insertion in the next (Figure 4e–f).
func TestPlannerFigure4(t *testing.T) {
	s := soccerSchema(t)
	f := model.MajorityShortcut(3)
	tmpl := paperValuesTemplate(t) // a: FW, b: Brazil, c: Spain
	rep := sync.NewReplica(s)
	g := sync.NewIDGen("w")

	r1 := mkRow(t, rep, g, "Neymar", "Brazil", "FW")
	r2 := mkRow(t, rep, g, "Ronaldinho", "Brazil", "FW")
	mkRow(t, rep, g, "", "Spain", "")
	r4 := mkRow(t, rep, g, "Messi", "Spain", "FW")
	if _, err := rep.Downvote(r2); err != nil { // row 2 starts with one downvote
		t.Fatal(err)
	}

	p, _ := newPlanner(rep, tmpl, f)
	if acts := p.Repair(rep); len(acts) != 0 {
		t.Fatalf("initial repair should need no actions, got %v", acts)
	}
	if !p.CheckPRI(rep) {
		t.Fatalf("PRI should hold after initial repair")
	}

	// Figure 4b-d: a second downvote removes row 2 from P; the augmenting
	// path b–1–a–4 restores the matching without inserting.
	if _, err := rep.Downvote(r2); err != nil {
		t.Fatal(err)
	}
	if acts := p.Repair(rep); len(acts) != 0 {
		t.Fatalf("repair after row-2 removal should find an augmenting path, got %v", acts)
	}
	asg := p.Assignment()
	if asg[1] != r1 { // template b (Brazil) must take row 1, the only Brazilian left
		t.Fatalf("template b assigned %s, want %s", asg[1], r1)
	}
	if asg[0] != r4 { // template a (FW) shifts to row 4
		t.Fatalf("template a assigned %s, want %s", asg[0], r4)
	}
	if !p.CheckPRI(rep) {
		t.Fatalf("PRI should hold after augmenting")
	}

	// Figure 4e-f: Messi's caps get filled (row 4 -> 4'), then 4' is
	// downvoted twice; no augmenting path exists for template a, so the
	// planner inserts a row seeded with a's value (position=FW).
	var r4p model.RowID
	{
		m, err := rep.Fill(r4, 3, "82", g.Next())
		if err != nil {
			t.Fatal(err)
		}
		r4p = m.NewRow
	}
	if acts := p.Repair(rep); len(acts) != 0 {
		t.Fatalf("fill alone should not break the PRI, got %v", acts)
	}
	for i := 0; i < 2; i++ {
		if _, err := rep.Downvote(r4p); err != nil {
			t.Fatal(err)
		}
	}
	acts := p.Repair(rep)
	if len(acts) != 1 || acts[0].Kind != ActionInsert || acts[0].Template != 0 {
		t.Fatalf("want one insert for template a, got %v", acts)
	}
	if !acts[0].Seed.Equal(model.VectorOf("", "", "FW", "", "")) {
		t.Fatalf("insert seed = %v, want (·,·,FW,·,·)", acts[0].Seed)
	}
	if acts[0].Upvote {
		t.Fatalf("partial seed must not be auto-upvoted")
	}
	execAction(t, rep, g, acts[0])
	if acts := p.Repair(rep); len(acts) != 0 {
		t.Fatalf("repair after insert should be clean, got %v", acts)
	}
	if !p.CheckPRI(rep) {
		t.Fatalf("PRI should hold at the end of the scenario")
	}
	if rep.Table().Len() != 5 {
		t.Fatalf("candidate table has %d rows, want 5 (paper's final state)", rep.Table().Len())
	}
	if p.Inserts != 1 || p.Removals != 0 {
		t.Fatalf("stats: inserts=%d removals=%d", p.Inserts, p.Removals)
	}
}

// TestPlannerShuffle forces the §4.2 "shuffle" case: the free template row's
// own value cannot be inserted (its key is owned by a positive row), but
// handing that row over and re-inserting for a different, insertable
// template row repairs the PRI.
func TestPlannerShuffle(t *testing.T) {
	s := soccerSchema(t)
	f := model.MajorityShortcut(3)
	tmpl, err := ValuesTemplate(s,
		model.VectorOf("Messi", "Argentina", "", "", ""), // t0: pinned key
		model.NewVector(5), // t1: empty (cardinality slot)
	)
	if err != nil {
		t.Fatal(err)
	}
	rep := sync.NewReplica(s)
	g := sync.NewIDGen("w")
	// Create the complete row first so its id sorts before the partial one;
	// Kuhn's recursive reassignment then leaves t0 holding the partial row.
	sRow := mkRow(t, rep, g, "Messi", "Argentina", "FW", "83", "37")
	rm := mkRow(t, rep, g, "Messi", "Argentina") // partial, matches t0

	p, _ := newPlanner(rep, tmpl, f)
	if acts := p.Repair(rep); len(acts) != 0 {
		t.Fatalf("both rows probable: no actions expected, got %v", acts)
	}
	asg := p.Assignment()
	if asg[0] != rm || asg[1] != sRow {
		t.Fatalf("assignment = %v, want [%s %s]", asg, rm, sRow)
	}

	// Two upvotes make sRow positive; rm (same key, zero score) drops out
	// of P. t0 is freed; inserting (Messi, Argentina) would conflict with
	// the positive row, so the planner shuffles: t0 takes sRow and a new
	// row is inserted for the empty template t1.
	rep.Upvote(sRow)
	rep.Upvote(sRow)
	acts := p.Repair(rep)
	if len(acts) != 1 || acts[0].Kind != ActionInsert || acts[0].Template != 1 {
		t.Fatalf("want one insert for template 1 via shuffle, got %v", acts)
	}
	asg = p.Assignment()
	if asg[0] != sRow {
		t.Fatalf("template 0 should now hold the positive row, got %v", asg)
	}
	execAction(t, rep, g, acts[0])
	if acts := p.Repair(rep); len(acts) != 0 {
		t.Fatalf("post-shuffle repair should be clean, got %v", acts)
	}
	if !p.CheckPRI(rep) {
		t.Fatalf("PRI should hold after shuffle")
	}
}

// TestPlannerRemoveTemplate: when a template row's value is voted down and
// nothing can satisfy it, the planner drops it from T (§4.2's last resort).
func TestPlannerRemoveTemplate(t *testing.T) {
	s := soccerSchema(t)
	f := model.MajorityShortcut(3)
	tmpl, err := ValuesTemplate(s, model.VectorOf("Messi", "Brazil", "", "", "")) // wrong data
	if err != nil {
		t.Fatal(err)
	}
	rep := sync.NewReplica(s)
	g := sync.NewIDGen("cc")

	p, _ := newPlanner(rep, tmpl, f)
	init := p.InitActions()
	if len(init) != 1 || init[0].Upvote {
		t.Fatalf("init actions = %v", init)
	}
	seeded := execAction(t, rep, g, init[0])
	if acts := p.Repair(rep); len(acts) != 0 {
		t.Fatalf("seeded template should satisfy PRI, got %v", acts)
	}

	// Workers downvote the bogus (Messi, Brazil) combination twice: the
	// seeded row leaves P, reinsertion would inherit the downvotes, and no
	// shuffle can help a single-row template.
	rep.Downvote(seeded)
	rep.Downvote(seeded)
	acts := p.Repair(rep)
	if len(acts) != 1 || acts[0].Kind != ActionRemoveTemplate || acts[0].Template != 0 {
		t.Fatalf("want template removal, got %v", acts)
	}
	if p.RemovedCount() != 1 {
		t.Fatalf("RemovedCount = %d", p.RemovedCount())
	}
	if got := len(p.Template().Rows); got != 0 {
		t.Fatalf("active template rows = %d, want 0", got)
	}
	// Repair is now stable.
	if acts := p.Repair(rep); len(acts) != 0 {
		t.Fatalf("post-removal repair should be clean, got %v", acts)
	}
}

// TestPlannerInitActions: complete template rows are upvoted at seeding time
// (§4.2: CC upvotes all complete template rows).
func TestPlannerInitActions(t *testing.T) {
	s := soccerSchema(t)
	tmpl, err := ValuesTemplate(s,
		model.VectorOf("Lionel Messi", "Argentina", "FW", "83", "37"), // complete
		model.VectorOf("", "Brazil", "", "", ""),                      // partial
	)
	if err != nil {
		t.Fatal(err)
	}
	rep := sync.NewReplica(s)
	p, _ := newPlanner(rep, tmpl, model.MajorityShortcut(3))
	acts := p.InitActions()
	if len(acts) != 2 {
		t.Fatalf("init actions = %d, want 2", len(acts))
	}
	if !acts[0].Upvote || acts[1].Upvote {
		t.Fatalf("only the complete template row should be upvoted: %v", acts)
	}

	// Executing the init actions satisfies the PRI immediately.
	g := sync.NewIDGen("cc")
	for _, a := range acts {
		execAction(t, rep, g, a)
	}
	if got := p.Repair(rep); len(got) != 0 {
		t.Fatalf("repair after init = %v, want none", got)
	}
	if !p.CheckPRI(rep) {
		t.Fatalf("PRI should hold after init")
	}
}

// TestPlannerCardinalityGrowth: with a pure cardinality constraint, workers
// completing and downvoting rows cause the planner to keep exactly enough
// probable rows around.
func TestPlannerCardinalityGrowth(t *testing.T) {
	s := soccerSchema(t)
	f := model.MajorityShortcut(3)
	rep := sync.NewReplica(s)
	p, _ := newPlanner(rep, Cardinality(s, 4), f)
	cc := sync.NewIDGen("cc")
	w := sync.NewIDGen("w")

	for _, a := range p.InitActions() {
		execAction(t, rep, cc, a)
	}
	if got := p.Repair(rep); len(got) != 0 {
		t.Fatalf("init repair: %v", got)
	}

	// A worker ruins one empty row by filling it with a combination that
	// then gets downvoted out of P; the planner must insert a replacement.
	rows := Probable(rep.Table(), f)
	id := rows[0].ID
	m, err := rep.Fill(id, 0, "Junk", w.Next())
	if err != nil {
		t.Fatal(err)
	}
	rep.Downvote(m.NewRow)
	rep.Downvote(m.NewRow)
	acts := p.Repair(rep)
	if len(acts) != 1 || acts[0].Kind != ActionInsert {
		t.Fatalf("want one replacement insert, got %v", acts)
	}
	execAction(t, rep, cc, acts[0])
	if !p.CheckPRI(rep) {
		t.Fatalf("PRI should hold after replacement")
	}
	if got := len(Probable(rep.Table(), f)); got < 4 {
		t.Fatalf("probable rows = %d, want >= 4", got)
	}
}
