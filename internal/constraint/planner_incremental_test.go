package constraint

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"crowdfill/internal/model"
	"crowdfill/internal/sync"
)

// newIncrementalPlanner wires a planner to a replica the way server.Core
// does: a TableIndex observing the replica feeds the delta-driven engine.
func newIncrementalPlanner(rep *sync.Replica, tmpl Template, score model.ScoreFunc) (*Planner, *model.TableIndex) {
	idx := model.NewTableIndex(rep.Table(), score)
	rep.SetObserver(idx)
	p := NewPlanner(tmpl, score)
	p.UseIncremental(idx)
	return p, idx
}

// TestPlannerIncrementalEquivalenceRandom is the incremental repair's
// property test: a spec planner (full rebuild, no index) and an incremental
// planner run side by side over randomized fills, votes, undos, and snapshot
// reloads, and must emit identical action streams, assignments, and removal
// sets at every repair — with CheckPRI holding at every stable point. The
// template mixes pinned OpEq rows (exercising shuffle and removal) with
// cardinality slots, and the op mix is the same one the index cross-check
// uses, plus vote-only messages on probable rows: those mostly leave the
// probable set alone, which is when the incremental Repair returns before
// re-seeding — so the property covers that early return too (and the run
// must have taken it).
func TestPlannerIncrementalEquivalenceRandom(t *testing.T) {
	schema := model.MustSchema("kv", []model.Column{
		{Name: "k1", Type: model.TypeString},
		{Name: "k2", Type: model.TypeString},
		{Name: "v", Type: model.TypeString},
	}, "k1", "k2")

	var totInserts, totRemovals, totSkipped int
	for seed := int64(0); seed < 10; seed++ {
		tmpl, err := ValuesTemplate(schema,
			model.VectorOf("v1", "", ""), // pinned: k1=v1 (fills use v0/v1/v2)
			model.VectorOf("v0", "v2", ""),
			model.NewVector(3), // cardinality slots
			model.NewVector(3),
		)
		if err != nil {
			t.Fatal(err)
		}
		score := model.MajorityShortcut(3)
		rep := sync.NewReplica(schema)
		gen := sync.NewIDGen(fmt.Sprintf("s%d", seed))
		cc := sync.NewIDGen(fmt.Sprintf("cc%d", seed))
		rng := rand.New(rand.NewSource(seed))

		spec := NewPlanner(tmpl, score)
		incr, idx := newIncrementalPlanner(rep, tmpl, score)
		incr.SetDebug(true) // panic with detail inside Repair on divergence
		if incr.Mode() != "incremental" || spec.Mode() != "full-rebuild" {
			t.Fatalf("modes = %s/%s", incr.Mode(), spec.Mode())
		}

		repairBoth := func(step int) {
			t.Helper()
			for iter := 0; ; iter++ {
				if iter > 50 {
					t.Fatalf("seed %d step %d: repair did not stabilize", seed, step)
				}
				specActs := spec.Repair(rep)
				idx.Version() // deliver pending deltas, as Repair is about to
				if incr.eng.stable {
					totSkipped++
				}
				incrActs := incr.Repair(rep)
				if !reflect.DeepEqual(specActs, incrActs) {
					t.Fatalf("seed %d step %d: actions diverge\n spec %v\n incr %v",
						seed, step, specActs, incrActs)
				}
				if sa, ia := spec.Assignment(), incr.Assignment(); !reflect.DeepEqual(sa, ia) {
					t.Fatalf("seed %d step %d: assignment diverges\n spec %v\n incr %v",
						seed, step, sa, ia)
				}
				if len(incrActs) == 0 {
					break
				}
				for _, a := range incrActs {
					execAction(t, rep, cc, a)
				}
			}
			if !incr.CheckPRI(rep) {
				t.Fatalf("seed %d step %d: PRI violated at stable point", seed, step)
			}
		}

		for _, a := range incr.InitActions() {
			execAction(t, rep, cc, a)
		}
		repairBoth(-1)

		var castUp, castDown []model.Vector
		for step := 0; step < 150; step++ {
			switch prob := idx.Probable(); {
			case rng.Intn(25) == 0:
				// Snapshot reload: the index resets and rebuilds; the engine
				// must survive losing every slot without perturbing the
				// assignment.
				rep.LoadSnapshot(rep.TakeSnapshot())
				castUp, castDown = nil, nil
			case rng.Intn(4) == 0 && len(prob) > 0:
				// Vote-only message on a probable row.
				r := prob[rng.Intn(len(prob))]
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
				doRandomOp(t, rep, gen, rng, &castUp, &castDown)
			}
			repairBoth(step)
		}

		if spec.Repairs != incr.Repairs || spec.Augments != incr.Augments ||
			spec.Inserts != incr.Inserts || spec.Removals != incr.Removals {
			t.Fatalf("seed %d: stats diverge: spec {rep %d aug %d ins %d rem %d}, incr {rep %d aug %d ins %d rem %d}",
				seed, spec.Repairs, spec.Augments, spec.Inserts, spec.Removals,
				incr.Repairs, incr.Augments, incr.Inserts, incr.Removals)
		}
		totInserts += incr.Inserts
		totRemovals += incr.Removals
	}
	if totInserts == 0 || totRemovals == 0 || totSkipped == 0 {
		t.Fatalf("op mix too tame: inserts=%d removals=%d no-delta repairs=%d across seeds — the equivalence was not exercised",
			totInserts, totRemovals, totSkipped)
	}
	t.Logf("inserts=%d removals=%d no-delta repairs=%d", totInserts, totRemovals, totSkipped)
}

// TestPlannerIncrementalShuffle replays the §4.2 shuffle scenario through the
// incremental path (with the debug cross-check on).
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

	p, _ := newIncrementalPlanner(rep, tmpl, f)
	p.SetDebug(true)
	if acts := p.Repair(rep); len(acts) != 0 {
		t.Fatalf("both rows probable: no actions expected, got %v", acts)
	}
	if asg := p.Assignment(); asg[0] != rm || asg[1] != sRow {
		t.Fatalf("assignment = %v, want [%s %s]", asg, rm, sRow)
	}

	rep.Upvote(sRow)
	rep.Upvote(sRow)
	acts := p.Repair(rep)
	if len(acts) != 1 || acts[0].Kind != ActionInsert || acts[0].Template != 1 {
		t.Fatalf("want one insert for template 1 via shuffle, got %v", acts)
	}
	if asg := p.Assignment(); asg[0] != sRow {
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

// TestPlannerIncrementalRemoveTemplate replays the template-removal scenario
// through the incremental path: the removed template must also leave the
// engine's inverted index, so later rows stop matching it.
func TestPlannerIncrementalRemoveTemplate(t *testing.T) {
	s := soccerSchema(t)
	f := model.MajorityShortcut(3)
	tmpl, err := ValuesTemplate(s, model.VectorOf("Messi", "Brazil", "", "", ""))
	if err != nil {
		t.Fatal(err)
	}
	rep := sync.NewReplica(s)
	g := sync.NewIDGen("cc")

	p, _ := newIncrementalPlanner(rep, tmpl, f)
	p.SetDebug(true)
	seeded := execAction(t, rep, g, p.InitActions()[0])
	if acts := p.Repair(rep); len(acts) != 0 {
		t.Fatalf("seeded template should satisfy PRI, got %v", acts)
	}

	rep.Downvote(seeded)
	rep.Downvote(seeded)
	acts := p.Repair(rep)
	if len(acts) != 1 || acts[0].Kind != ActionRemoveTemplate || acts[0].Template != 0 {
		t.Fatalf("want template removal, got %v", acts)
	}
	if p.RemovedCount() != 1 {
		t.Fatalf("RemovedCount = %d", p.RemovedCount())
	}
	if acts := p.Repair(rep); len(acts) != 0 {
		t.Fatalf("post-removal repair should be clean, got %v", acts)
	}

	// New rows matching the removed template must not grow its adjacency.
	mkRow(t, rep, g, "Messi", "Brazil", "FW")
	if acts := p.Repair(rep); len(acts) != 0 {
		t.Fatalf("removed template must stay removed, got %v", acts)
	}
}
