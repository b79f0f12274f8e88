package constraint

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"crowdfill/internal/model"
	"crowdfill/internal/sync"
)

// kvSchema3 is the three-column, two-key-column schema the equivalence runs
// use; doRandomOp fills every column from {v0, v1, v2}.
func kvSchema3() *model.Schema {
	return model.MustSchema("kv", []model.Column{
		{Name: "k1", Type: model.TypeString},
		{Name: "k2", Type: model.TypeString},
		{Name: "v", Type: model.TypeString},
	}, "k1", "k2")
}

// equivalenceStats is what one equivalence run exercised.
type equivalenceStats struct {
	inserts, removals int
	nothingDirty      int // repairs the incremental planner answered without looking at the matching
	split             int // repairs run while exactly one of template rows 0 and 1 was removed
}

// runEquivalence is the incremental repair's property: the spec planner
// (full rebuild, table scans) and the production planner run side by side
// over up to steps operations chosen by intn (fills, votes, undos, vote-only
// messages on probable rows, snapshot reloads) and must emit identical action
// streams, assignments, removal sets and counters at every repair — with
// CheckPRI holding at every stable point. Each production repair is also
// replayed through a spec seeded with its own pre-repair state
// (checkedRepair). The run ends early when more() turns false.
func runEquivalence(t *testing.T, name string, tmpl Template, steps int, intn func(int) int, more func() bool) equivalenceStats {
	t.Helper()
	schema := tmpl.Schema
	score := model.MajorityShortcut(3)
	rep := sync.NewReplica(schema)
	gen := sync.NewIDGen("s" + name)
	cc := sync.NewIDGen("cc" + name)

	spec := newSpecPlanner(tmpl, score)
	incr, idx := newPlanner(rep, tmpl, score)

	var st equivalenceStats
	repairBoth := func(step int) {
		t.Helper()
		for iter := 0; ; iter++ {
			if iter > 50 {
				t.Fatalf("%s step %d: repair did not stabilize", name, step)
			}
			specActs := spec.repairFull(rep)
			incrActs := checkedRepair(t, incr, rep)
			if incr.LastDirty() == 0 {
				st.nothingDirty++
			}
			if len(incr.removed) > 1 && incr.removed[0] != incr.removed[1] {
				st.split++
			}
			if !reflect.DeepEqual(specActs, incrActs) {
				t.Fatalf("%s step %d: actions diverge\n spec %v\n incr %v",
					name, step, specActs, incrActs)
			}
			if sa, ia := spec.assigned, incr.Assignment(); !reflect.DeepEqual(sa, ia) {
				t.Fatalf("%s step %d: assignment diverges\n spec %v\n incr %v",
					name, step, sa, ia)
			}
			if !reflect.DeepEqual(spec.removed, incr.removed) {
				t.Fatalf("%s step %d: removals diverge\n spec %v\n incr %v",
					name, step, spec.removed, incr.removed)
			}
			if len(incrActs) == 0 {
				break
			}
			for _, a := range incrActs {
				execAction(t, rep, cc, a)
			}
		}
		if !incr.CheckPRI(rep) {
			t.Fatalf("%s step %d: PRI violated at stable point", name, step)
		}
	}

	for _, a := range incr.InitActions() {
		execAction(t, rep, cc, a)
	}
	repairBoth(-1)

	var castUp, castDown []model.Vector
	for step := 0; step < steps && more(); step++ {
		switch prob := idx.Probable(); {
		case intn(25) == 0:
			// Snapshot reload: the index resets and rebuilds; the engine
			// must survive losing every slot without perturbing the
			// assignment.
			if err := rep.LoadSnapshot(rep.TakeSnapshot()); err != nil {
				t.Fatalf("%s step %d: reload: %v", name, step, err)
			}
			castUp, castDown = nil, nil
		case intn(4) == 0 && len(prob) > 0:
			// Vote-only message on a probable row.
			r := prob[intn(len(prob))]
			if r.Vec.IsComplete() {
				m, err := rep.Upvote(r.ID)
				if err != nil {
					t.Fatal(err)
				}
				castUp = append(castUp, m.Vec.Clone())
			} else if r.Vec.IsPartial() {
				m, err := rep.Downvote(r.ID)
				if err != nil {
					t.Fatal(err)
				}
				castDown = append(castDown, m.Vec.Clone())
			}
		default:
			doRandomOp(t, rep, gen, intn, &castUp, &castDown)
		}
		repairBoth(step)
	}

	if spec.Repairs != incr.Repairs || spec.Augments != incr.Augments ||
		spec.Inserts != incr.Inserts || spec.Removals != incr.Removals {
		t.Fatalf("%s: stats diverge: spec {rep %d aug %d ins %d rem %d}, incr {rep %d aug %d ins %d rem %d}",
			name, spec.Repairs, spec.Augments, spec.Inserts, spec.Removals,
			incr.Repairs, incr.Augments, incr.Inserts, incr.Removals)
	}
	st.inserts, st.removals = incr.Inserts, incr.Removals
	return st
}

// TestPlannerIncrementalEquivalenceRandom runs the property over seeded
// random op sequences. The template mixes pinned OpEq rows (exercising
// shuffle and removal) with cardinality slots; two of the pinned rows are
// identical, so they share a class that must survive losing one member to
// ActionRemoveTemplate (and the run must have split them). The op mix is the
// same one the index cross-check uses, plus vote-only messages on probable
// rows: those mostly leave every matched row probable, which is when the
// incremental Repair finds nothing dirty and returns — so the property covers
// that early return too (and the run must have taken it).
func TestPlannerIncrementalEquivalenceRandom(t *testing.T) {
	schema := kvSchema3()
	var tot equivalenceStats
	for seed := int64(0); seed < 20; seed++ {
		tmpl, err := ValuesTemplate(schema,
			model.VectorOf("v1", "", ""), // pinned: k1=v1 (fills use v0/v1/v2)
			model.VectorOf("v1", "", ""), // its duplicate: same class
			model.VectorOf("v0", "v2", ""),
			model.NewVector(3), // cardinality slots
			model.NewVector(3),
		)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		st := runEquivalence(t, fmt.Sprintf("seed%d", seed), tmpl, 150, rng.Intn, func() bool { return true })
		tot.inserts += st.inserts
		tot.removals += st.removals
		tot.nothingDirty += st.nothingDirty
		tot.split += st.split
	}
	if tot.inserts == 0 || tot.removals == 0 || tot.nothingDirty == 0 || tot.split == 0 {
		t.Fatalf("op mix too tame: %+v across seeds — the equivalence was not exercised", tot)
	}
	t.Logf("%+v", tot)
}

func fuzzTemplate(t testing.TB) Template {
	t.Helper()
	tmpl, err := PredTemplate(kvSchema3(),
		TemplateRow{Eq("v1"), Any, Any},
		TemplateRow{Eq("v1"), Any, Any},
		TemplateRow{Eq("v0"), Eq("v2"), Any},
		TemplateRow{Any, Any, Ge("v1")},
		TemplateRow{Any, Any, Ge("v1")},
		TemplateRow{Any, Ne("v0"), Any},
	)
	if err != nil {
		t.Fatal(err)
	}
	return tmpl.WithCardinality(9)
}

// FuzzPlannerIncremental runs the same property with the fuzz input choosing
// every operation, over a template that has everything the class-sharing
// engine distinguishes: duplicate pinned rows, duplicate predicate rows, a
// complete-key pin, a lone predicate row and cardinality padding. The seed
// corpus is in testdata/fuzz: random inputs kept for splitting the duplicate
// class, removing template rows, or planning many inserts.
func FuzzPlannerIncremental(f *testing.F) {
	tmpl := fuzzTemplate(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Two input bytes per choice; the run ends with the input.
		next := func(n int) int {
			if len(data) < 2 {
				data = nil
				return 0
			}
			v := int(data[0])<<8 | int(data[1])
			data = data[2:]
			return v % n
		}
		runEquivalence(t, "fuzz", tmpl, 300, next, func() bool { return len(data) >= 2 })
	})
}

// TestPlannerIncrementalShuffle replays the §4.2 shuffle scenario through the
// incremental path, checking every repair against the spec.
func TestPlannerIncrementalShuffle(t *testing.T) {
	s := soccerSchema(t)
	f := model.MajorityShortcut(3)
	tmpl, err := ValuesTemplate(s,
		model.VectorOf("Messi", "Argentina", "", "", ""),
		model.NewVector(5),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep := sync.NewReplica(s)
	g := sync.NewIDGen("w")
	sRow := mkRow(t, rep, g, "Messi", "Argentina", "FW", "83", "37")
	rm := mkRow(t, rep, g, "Messi", "Argentina")

	p, _ := newPlanner(rep, tmpl, f)
	if acts := checkedRepair(t, p, rep); len(acts) != 0 {
		t.Fatalf("both rows probable: no actions expected, got %v", acts)
	}
	if asg := p.Assignment(); asg[0] != rm || asg[1] != sRow {
		t.Fatalf("assignment = %v, want [%s %s]", asg, rm, sRow)
	}

	rep.Upvote(sRow)
	rep.Upvote(sRow)
	acts := checkedRepair(t, p, rep)
	if len(acts) != 1 || acts[0].Kind != ActionInsert || acts[0].Template != 1 {
		t.Fatalf("want one insert for template 1 via shuffle, got %v", acts)
	}
	if asg := p.Assignment(); asg[0] != sRow {
		t.Fatalf("template 0 should now hold the positive row, got %v", asg)
	}
	// The shuffled-out template waits, dirty, behind its planned insert; the
	// next repair looks at it alone and matches the inserted row.
	if p.Unmatched() != 1 || p.AssignedRow(1) != "" {
		t.Fatalf("after the shuffle: unmatched = %d, template 1 holds %q; want 1 and none", p.Unmatched(), p.AssignedRow(1))
	}
	inserted := execAction(t, rep, g, acts[0])
	if acts := checkedRepair(t, p, rep); len(acts) != 0 {
		t.Fatalf("post-shuffle repair should be clean, got %v", acts)
	}
	if p.LastDirty() != 1 || p.Unmatched() != 0 || p.AssignedRow(1) != inserted {
		t.Fatalf("post-shuffle repair: dirty = %d, unmatched = %d, template 1 holds %q; want 1, 0 and the inserted row %q",
			p.LastDirty(), p.Unmatched(), p.AssignedRow(1), inserted)
	}
	if !p.CheckPRI(rep) {
		t.Fatalf("PRI should hold after shuffle")
	}
}

// TestPlannerIncrementalRemoveTemplate replays the template-removal scenario
// through the incremental path, checking every repair against the spec: the
// removed template must also leave the engine's inverted index, so later rows
// stop matching it.
func TestPlannerIncrementalRemoveTemplate(t *testing.T) {
	s := soccerSchema(t)
	f := model.MajorityShortcut(3)
	tmpl, err := ValuesTemplate(s, model.VectorOf("Messi", "Brazil", "", "", ""))
	if err != nil {
		t.Fatal(err)
	}
	rep := sync.NewReplica(s)
	g := sync.NewIDGen("cc")

	p, _ := newPlanner(rep, tmpl, f)
	seeded := execAction(t, rep, g, p.InitActions()[0])
	if acts := checkedRepair(t, p, rep); len(acts) != 0 {
		t.Fatalf("seeded template should satisfy PRI, got %v", acts)
	}

	rep.Downvote(seeded)
	rep.Downvote(seeded)
	acts := checkedRepair(t, p, rep)
	if len(acts) != 1 || acts[0].Kind != ActionRemoveTemplate || acts[0].Template != 0 {
		t.Fatalf("want template removal, got %v", acts)
	}
	if p.RemovedCount() != 1 {
		t.Fatalf("RemovedCount = %d", p.RemovedCount())
	}
	if acts := checkedRepair(t, p, rep); len(acts) != 0 {
		t.Fatalf("post-removal repair should be clean, got %v", acts)
	}

	// New rows matching the removed template must not grow its adjacency.
	mkRow(t, rep, g, "Messi", "Brazil", "FW")
	if acts := checkedRepair(t, p, rep); len(acts) != 0 {
		t.Fatalf("removed template must stay removed, got %v", acts)
	}
}

// TestPlannerIncrementalClassOutlivesMember: two identical pinned template
// rows share one adjacency list. When one of them is removed the list must
// stay — filed into and searched — for the other.
func TestPlannerIncrementalClassOutlivesMember(t *testing.T) {
	s := soccerSchema(t)
	tmpl, err := ValuesTemplate(s,
		model.VectorOf("", "", "FW", "", ""),
		model.VectorOf("", "", "FW", "", ""),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep := sync.NewReplica(s)
	g := sync.NewIDGen("w")
	upvoted := func(vals ...string) model.RowID {
		t.Helper()
		id := mkRow(t, rep, g, vals...)
		for i := 0; i < 3; i++ {
			if _, err := rep.Upvote(id); err != nil {
				t.Fatal(err)
			}
		}
		return id
	}
	a := upvoted("Messi", "Argentina", "FW", "83", "37")
	b := mkRow(t, rep, g, "Villa", "Spain", "FW")

	p, _ := newPlanner(rep, tmpl, model.MajorityShortcut(3))
	if acts := checkedRepair(t, p, rep); len(acts) != 0 || p.AssignedRow(0) != b || p.AssignedRow(1) != a {
		t.Fatalf("setup: actions %v, assignment %v", acts, p.Assignment())
	}

	// Two downvotes on the pinned value itself: the unvoted row dies, the
	// upvoted one survives, and a fresh insert would be born dead — so the
	// template row that held the dead row can only be removed.
	for i := 0; i < 2; i++ {
		if err := rep.Apply(sync.Message{Type: sync.MsgDownvote, Vec: model.VectorOf("", "", "FW", "", "")}); err != nil {
			t.Fatal(err)
		}
	}
	acts := checkedRepair(t, p, rep)
	if len(acts) != 1 || acts[0].Kind != ActionRemoveTemplate || acts[0].Template != 0 || p.AssignedRow(1) != a {
		t.Fatalf("want template 0 removed and template 1 still on %q, got %v, assignment %v", a, acts, p.Assignment())
	}

	// A new forward arrives, then template 1's row is voted out: the
	// surviving member must find the newcomer in the class's list.
	c := upvoted("Xavi", "Spain", "FW", "100", "10")
	for i := 0; i < 2; i++ {
		if _, err := rep.Downvote(a); err != nil {
			t.Fatal(err)
		}
	}
	if acts := checkedRepair(t, p, rep); len(acts) != 0 || p.AssignedRow(1) != c {
		t.Fatalf("want template 1 re-augmented onto %q with no action, got %v, assignment %v", c, acts, p.Assignment())
	}
	if !p.CheckPRI(rep) {
		t.Fatalf("PRI should hold")
	}
}

// groupFixture is the table the persistence tests share, under DefaultScore:
// eight rows a[0..7] of one key with a toggle row of that key whose upvote
// pushes all eight out of the probable set and whose undo brings them back,
// and, with higher ids, twenty-five filler rows of a second key with their
// own toggle — enough rows leaving in one flush to trigger the engine's
// compaction. Cardinality(3) holds a[7], a[6], a[5] (first fit cascades each
// earlier template one row down), not today's first fit among a[0..2] — those
// were voted out while the matching was built and restored afterwards — so a
// repair that forgot the assignment and searched again would be caught.
type groupFixture struct {
	rep        *sync.Replica
	idx        *model.TableIndex
	p          *Planner
	held       []model.RowID // the assignment every repairKeeps must find
	toggleA    model.RowID
	toggleAVec model.Vector
	toggleB    model.RowID
}

func newGroupFixture(t *testing.T) *groupFixture {
	t.Helper()
	s := model.MustSchema("G", []model.Column{{Name: "k"}, {Name: "v"}}, "k")
	fx := &groupFixture{rep: sync.NewReplica(s), toggleAVec: model.VectorOf("ka", "x")}
	gen := sync.NewIDGen("w")
	var a []model.RowID
	for i := 0; i < 8; i++ {
		a = append(a, mkRow(t, fx.rep, gen, "ka", fmt.Sprintf("v%d", i)))
	}
	fx.held = []model.RowID{a[7], a[6], a[5]}
	fx.toggleA = mkRow(t, fx.rep, gen, "ka", "x")
	for i := 0; i < 25; i++ {
		mkRow(t, fx.rep, gen, "kb", fmt.Sprintf("v%02d", i))
	}
	fx.toggleB = mkRow(t, fx.rep, gen, "kb", "x")
	for _, id := range a[:5] {
		if _, err := fx.rep.Downvote(id); err != nil {
			t.Fatal(err)
		}
	}
	fx.p, fx.idx = newPlanner(fx.rep, Cardinality(s, 3), model.DefaultScore)
	fx.repairKeeps(t, "initial", 3, 3)
	for i := range a[:5] {
		if _, err := fx.rep.UndoDownvote(model.VectorOf("ka", fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	fx.repairKeeps(t, "first-fit rows restored", 0, 0)
	return fx
}

// repairKeeps runs one repair that must plan nothing, re-validate dirty
// templates, run searches augmenting searches, and leave fx.held assigned.
func (fx *groupFixture) repairKeeps(t *testing.T, when string, dirty, searches int) {
	t.Helper()
	before := fx.p.Augments
	if acts := checkedRepair(t, fx.p, fx.rep); len(acts) != 0 {
		t.Fatalf("%s: repair planned %v", when, acts)
	}
	if got := fx.p.LastDirty(); got != dirty {
		t.Fatalf("%s: repair re-validated %d templates, want %d", when, got, dirty)
	}
	if got := fx.p.Augments - before; got != searches {
		t.Fatalf("%s: repair ran %d augmenting searches, want %d", when, got, searches)
	}
	if asg := fx.p.Assignment(); !reflect.DeepEqual(asg, fx.held) {
		t.Fatalf("%s: assignment = %v, want %v", when, asg, fx.held)
	}
}

// TestPlannerIncrementalKeepsPairAcrossCompaction: the matched rows are voted
// out, the engine compacts their slots away, and they are voted back in
// before the next repair. The spec seeds that repair with every assigned row
// that is probable when it runs, so the pairs must stand — rebuilt by row id
// in the rows' new slots, without a search.
func TestPlannerIncrementalKeepsPairAcrossCompaction(t *testing.T) {
	fx := newGroupFixture(t)
	e := fx.p.eng

	// Each flush is forced here, so the removals are delivered now and not
	// folded into the undo that follows.
	if _, err := fx.rep.Upvote(fx.toggleA); err != nil {
		t.Fatal(err)
	}
	fx.idx.Version()
	if s, ok := e.rowSlot[fx.held[0]]; !ok || e.live[s] || e.matchT[0] != s {
		t.Fatalf("voted out: the pair must be kept on a dead slot until the repair (slot %d, found %v)", s, ok)
	}
	if _, err := fx.rep.Upvote(fx.toggleB); err != nil {
		t.Fatal(err)
	}
	fx.idx.Version()
	if _, ok := e.rowSlot[fx.held[0]]; ok {
		t.Fatalf("compaction did not reclaim the matched row's slot")
	}
	if e.matchT[0] != -1 || fx.p.AssignedRow(0) != fx.held[0] {
		t.Fatalf("compaction must unmatch the slot and keep the assignment: matchT[0] = %d, assigned %q", e.matchT[0], fx.p.AssignedRow(0))
	}

	if _, err := fx.rep.UndoUpvote(fx.toggleAVec); err != nil {
		t.Fatal(err)
	}
	fx.repairKeeps(t, "rows back in new slots", 3, 0)

	// Without the undo the rows are gone at repair time: the pairs fall, the
	// searches share out the two toggle rows and the third template waits
	// for an insert.
	if _, err := fx.rep.Upvote(fx.toggleA); err != nil {
		t.Fatal(err)
	}
	acts := checkedRepair(t, fx.p, fx.rep)
	want := []model.RowID{fx.toggleB, fx.toggleA, ""}
	if asg := fx.p.Assignment(); !reflect.DeepEqual(asg, want) || fx.p.LastDirty() != 3 || fx.p.Unmatched() != 1 {
		t.Fatalf("rows gone: assignment %v after re-validating %d, %d unmatched; want %v, 3, 1 (actions %v)",
			asg, fx.p.LastDirty(), fx.p.Unmatched(), want, acts)
	}
}

// TestPlannerIncrementalIndexResetBetweenRepairs: a snapshot reload drops
// every slot and matched pair and dirties every template; the next repair
// rebuilds the matching from the kept assignment, as the spec's seeding does.
func TestPlannerIncrementalIndexResetBetweenRepairs(t *testing.T) {
	fx := newGroupFixture(t)
	if err := fx.rep.LoadSnapshot(fx.rep.TakeSnapshot()); err != nil {
		t.Fatal(err)
	}
	fx.repairKeeps(t, "after reload", 3, 0)
	fx.repairKeeps(t, "settled", 0, 0)
}

// repairMallocs counts the heap allocations of one Repair that must plan
// nothing. Pending deltas are delivered first: the index's flush has its own
// budget (a stat record per dirty key).
func repairMallocs(t *testing.T, p *Planner, idx *model.TableIndex, rep *sync.Replica) uint64 {
	t.Helper()
	idx.Version()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	acts := p.Repair(rep)
	runtime.ReadMemStats(&after)
	if len(acts) != 0 {
		t.Fatalf("repair planned %v", acts)
	}
	return after.Mallocs - before.Mallocs
}

// TestPlannerIncrementalRepairNoAllocs holds Repair to its budget: nothing
// when nothing is dirty, and nothing when it re-validates a pair or re-augments
// a freed template without planning an action.
func TestPlannerIncrementalRepairNoAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := model.MustSchema("A", []model.Column{{Name: "k"}, {Name: "v"}}, "k")
	rep := sync.NewReplica(s)
	gen := sync.NewIDGen("w")
	// Two rows of one key: upvoting either pushes the other out of the
	// probable set, undoing brings it back.
	rows := []model.RowID{mkRow(t, rep, gen, "k", "x"), mkRow(t, rep, gen, "k", "y")}
	vecs := []model.Vector{model.VectorOf("k", "x"), model.VectorOf("k", "y")}
	p, idx := newPlanner(rep, Cardinality(s, 1), model.DefaultScore)
	if acts := p.Repair(rep); len(acts) != 0 || p.AssignedRow(0) != rows[0] {
		t.Fatalf("setup: actions %v, template 0 holds %q", acts, p.AssignedRow(0))
	}
	vote := func(i int) {
		t.Helper()
		if _, err := rep.Upvote(rows[i]); err != nil {
			t.Fatal(err)
		}
	}
	unvote := func(i int) {
		t.Helper()
		if _, err := rep.UndoUpvote(vecs[i]); err != nil {
			t.Fatal(err)
		}
	}
	check := func(what string, allocs uint64, dirty, searches, augmentsBefore int) {
		t.Helper()
		if allocs != 0 || p.LastDirty() != dirty || p.Augments-augmentsBefore != searches {
			t.Fatalf("%s: %d allocations, %d templates re-validated, %d searches; want 0, %d, %d",
				what, allocs, p.LastDirty(), p.Augments-augmentsBefore, dirty, searches)
		}
	}
	for round := 0; round < 20; round++ {
		held := round % 2 // the row template 0 holds at the start of the round
		other := 1 - held

		aug := p.Augments
		check("nothing dirty", repairMallocs(t, p, idx, rep), 0, 0, aug)

		// The held row leaves and returns before the repair: re-validated, kept.
		vote(other)
		idx.Version()
		unvote(other)
		check("re-validate", repairMallocs(t, p, idx, rep), 1, 0, aug)

		// The held row leaves: the template is re-augmented onto the other.
		vote(other)
		check("re-augment", repairMallocs(t, p, idx, rep), 1, 1, aug)
		if p.AssignedRow(0) != rows[other] {
			t.Fatalf("round %d: template 0 holds %q, want %q", round, p.AssignedRow(0), rows[other])
		}
		unvote(other)
	}

	// The same budget as testing.AllocsPerRun reads it, over whole rounds:
	// a repair with nothing dirty, then one that re-augments the template
	// onto the other row, votes included.
	held := 0
	if n := testing.AllocsPerRun(100, func() {
		p.Repair(rep)
		vote(1 - held)
		if acts := p.Repair(rep); len(acts) != 0 {
			t.Fatalf("re-augment planned %v", acts)
		}
		unvote(1 - held)
		held = 1 - held
	}); n != 0 {
		t.Errorf("Planner.Repair rounds: %v allocs/op, want 0", n)
	}
	if p.AssignedRow(0) != rows[held] {
		t.Fatalf("after the rounds template 0 holds %q, want %q", p.AssignedRow(0), rows[held])
	}
}

// TestProbableAddedAllocsIndependentOfClassSize: a new probable row that
// matches only the padding class is filed once, whatever the class size —
// amortized slice and map growth only, under one allocation per row.
func TestProbableAddedAllocsIndependentOfClassSize(t *testing.T) {
	s := model.MustSchema("A", []model.Column{{Name: "k"}, {Name: "v"}}, "k")
	const runs = 512
	for _, n := range []int{20, 200} {
		p, _ := newPlanner(sync.NewReplica(s), Cardinality(s, n), model.DefaultScore)
		rows := make([]*model.Row, runs+1)
		for i := range rows {
			rows[i] = &model.Row{ID: model.RowID(fmt.Sprintf("r-%04d", i)), Vec: model.VectorOf(fmt.Sprintf("k%d", i), "x")}
		}
		i := 0
		if got := testing.AllocsPerRun(runs, func() { p.eng.ProbableAdded(rows[i]); i++ }); got != 0 {
			t.Fatalf("|T| = %d: ProbableAdded allocates %.0f per row, want amortized growth only (0)", n, got)
		}
		if got := len(p.eng.adj[p.eng.class[0]]); got != runs+1 {
			t.Fatalf("|T| = %d: padding class lists %d rows, want %d", n, got, runs+1)
		}
	}
}

// TestAugmentFailingSearchReadsEachEntryOnce: Cardinality(n) holds n rows,
// one of them leaves the probable set and no free row is left, so the search
// for its template fails after walking every holder of the one class. Each
// holder resumes the class list where the search stands, so the failure reads
// each of the n entries once: at most 2n visits, where restarting every level
// after its own entry would read about n²/2.
func TestAugmentFailingSearchReadsEachEntryOnce(t *testing.T) {
	const n = 200
	s := model.MustSchema("A", []model.Column{{Name: "k"}, {Name: "v"}}, "k")
	rep := sync.NewReplica(s)
	gen := sync.NewIDGen("w")
	for i := 0; i < n; i++ {
		mkRow(t, rep, gen, fmt.Sprintf("k%03d", i), "x")
	}
	p, _ := newPlanner(rep, Cardinality(s, n), model.DefaultScore)
	if acts := checkedRepair(t, p, rep); len(acts) != 0 {
		t.Fatalf("setup: repair planned %v", acts)
	}
	if _, err := rep.Downvote(p.AssignedRow(n / 2)); err != nil {
		t.Fatal(err)
	}
	augs, visits := p.Augments, p.AugmentVisits
	acts := checkedRepair(t, p, rep)
	if len(acts) != 1 || acts[0].Kind != ActionInsert || p.Augments-augs != 1 {
		t.Fatalf("repair planned %v after %d searches, want one insert after one failed search", acts, p.Augments-augs)
	}
	if got := p.AugmentVisits - visits; got > 2*n {
		t.Fatalf("the failed search read %d adjacency entries, want at most %d", got, 2*n)
	}
}

// TestPlannerIncrementalEquivalencePaddedPredicates runs the equivalence
// property on table200's template shape at |T| = 200: a fifth of the rows
// are predicates (OpEq on either key column, so several OpEq classes, and
// OpGe on a key or the value column), the rest cardinality padding, one big
// class. Every repair's actions and assignment must equal the spec's, so the
// scan cursor of each class changes no search's exploration order.
func TestPlannerIncrementalEquivalencePaddedPredicates(t *testing.T) {
	const size = 200
	vals := []string{"v0", "v1", "v2"}
	rows := make([]TemplateRow, size/5)
	for i := range rows {
		tr := make(TemplateRow, 3)
		v := vals[(i/4)%len(vals)]
		switch i % 4 {
		case 0:
			tr[0] = Eq(v)
		case 1:
			tr[1] = Eq(v)
		case 2:
			tr[2] = Ge(v)
		case 3:
			tr[1] = Ge(v)
		}
		rows[i] = tr
	}
	tmpl, err := PredTemplate(kvSchema3(), rows...)
	if err != nil {
		t.Fatal(err)
	}
	tmpl = tmpl.WithCardinality(size)
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		runEquivalence(t, fmt.Sprintf("padded%d", seed), tmpl, 150, rng.Intn, func() bool { return true })
	}
}
