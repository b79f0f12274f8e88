package server

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"crowdfill/internal/client"
	"crowdfill/internal/constraint"
	"crowdfill/internal/metrics"
	"crowdfill/internal/model"
	"crowdfill/internal/sync"
)

// TestCompletionDecisionMatchesFromScratch is the lazy completion check's
// equivalence property: over seeded random runs (fills, up- and downvotes,
// undos, pinned template rows the crowd can vote out so the Central Client
// drops them, and in-place snapshot reloads of the master so TableReset fires)
// Core.Done must flip on exactly the message on which a from-scratch
// Template.SatisfiedBy over a from-scratch final table does, and after every
// message the core's incremental state must match scratch (scratchMismatch).
func TestCompletionDecisionMatchesFromScratch(t *testing.T) {
	s := kvSchema(t)
	score := model.MajorityShortcut(3)
	tmpl, err := constraint.PredTemplate(s,
		constraint.TemplateRow{constraint.Eq("x"), constraint.Any},
		constraint.TemplateRow{constraint.Any, constraint.Eq("v2")})
	if err != nil {
		t.Fatal(err)
	}
	tmpl = tmpl.WithCardinality(4)

	scratchDone := func(c *Core) bool {
		return c.Planner().Template().SatisfiedBy(model.FinalTable(c.Master().Table(), score))
	}

	var finished, removals, reloads int
	var checks [doneCheckN]uint64
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reg := metrics.NewRegistry()
		cfg := cardinalityConfig(t, 0)
		cfg.Score, cfg.Template = score, tmpl
		cfg.Metrics = NewMetrics(reg, metrics.NewRecorder(16))
		r := newRig(t, cfg)
		if r.core.Done() != scratchDone(r.core) {
			t.Fatalf("seed %d: Done=%v after New, from-scratch says %v", seed, r.core.Done(), !r.core.Done())
		}

		ids := []string{"c1", "c2", "c3"}
		clients := make([]*client.Client, len(ids))
		voted := make([][]model.Vector, len(ids))
		for i, id := range ids {
			clients[i] = r.join(id, "w"+id)
		}

		for step := 0; step < 600 && !r.core.Done(); step++ {
			if step%97 == 96 {
				if err := r.core.master.LoadSnapshot(r.core.master.TakeSnapshot()); err != nil {
					t.Fatalf("seed %d step %d: reload: %v", seed, step, err)
				}
				reloads++
			}
			ci := rng.Intn(len(ids))
			cl := clients[ci]
			rows := cl.Rows(nil)
			row := rows[rng.Intn(len(rows))]
			var msgs []sync.Message
			var err error
			switch k := rng.Intn(10); {
			case k < 5:
				col := rng.Intn(2)
				if row.Vec[col].Set {
					continue
				}
				val := fmt.Sprintf("v%d", rng.Intn(3))
				if col == 0 {
					val = []string{"x", "k1", "k2", "k3", "k4", "k5"}[rng.Intn(6)]
				}
				msgs, err = cl.Fill(row.ID, col, val)
			case k < 8:
				var m sync.Message
				if row.Vec.IsComplete() {
					m, err = cl.Upvote(row.ID)
				} else {
					m, err = cl.Downvote(row.ID)
				}
				if err == nil {
					voted[ci] = append(voted[ci], m.Vec.Clone())
					msgs = []sync.Message{m}
				}
			default:
				if len(voted[ci]) == 0 {
					continue
				}
				j := rng.Intn(len(voted[ci]))
				v := voted[ci][j]
				voted[ci] = append(voted[ci][:j], voted[ci][j+1:]...)
				var m sync.Message
				m, err = cl.UndoVote(v)
				msgs = []sync.Message{m}
			}
			if err != nil {
				continue // the client refused (already voted, empty row, ...): nothing was sent
			}
			for i, m := range msgs {
				out, err := handleExpanded(r.core, ids[ci], m)
				if err != nil {
					t.Fatalf("seed %d step %d: Handle: %v", seed, step, err)
				}
				r.deliver(out)
				if got, want := r.core.Done(), scratchDone(r.core); got != want {
					t.Fatalf("seed %d step %d msg %d (%v): Done=%v, from-scratch says %v",
						seed, step, i, m.Type, got, want)
				}
				if err := scratchMismatch(r.core); err != nil {
					t.Fatalf("seed %d step %d msg %d (%v): %v", seed, step, i, m.Type, err)
				}
			}
		}

		if r.core.Done() {
			finished++
		}
		removals += r.core.Planner().RemovedCount()
		snap := reg.Snapshot()
		for dc := doneCheck(0); dc < doneCheckN; dc++ {
			checks[dc] += counterValue(snap, `crowdfill_core_done_checks_total{outcome="`+dc.String()+`"}`)
		}
	}
	t.Logf("finished=%d removals=%d reloads=%d checks unchanged/short/full=%v", finished, removals, reloads, checks)
	if finished == 0 || removals == 0 || reloads == 0 {
		t.Fatalf("runs too tame: finished=%d removals=%d reloads=%d", finished, removals, reloads)
	}
	for dc, n := range checks {
		if n == 0 {
			t.Fatalf("no completion check was answered %q: %v", doneCheck(dc), checks)
		}
	}
}

// scratchMismatch re-derives from scratch what the core maintains
// incrementally: the index's probable rows and final table must be
// model.ProbableRows and model.FinalTable of the master, and the planner's
// matching must keep the PRI. It reports the first difference, or nil.
func scratchMismatch(c *Core) error {
	ids := func(rows []*model.Row) []model.RowID {
		out := make([]model.RowID, len(rows))
		for i, r := range rows {
			out[i] = r.ID
		}
		return out
	}
	table := c.master.Table()
	if got, want := c.index.Probable(), model.ProbableRows(table, c.cfg.Score); !slices.Equal(got, want) {
		return fmt.Errorf("index probable rows %v, from scratch %v", ids(got), ids(want))
	}
	if got, want := c.index.FinalTable(), model.FinalTable(table, c.cfg.Score); !slices.Equal(got, want) {
		return fmt.Errorf("index final table %v, from scratch %v", ids(got), ids(want))
	}
	if !c.Planner().CheckPRI(c.master) {
		return errors.New("the planner's matching violates the PRI")
	}
	return nil
}

// checkScratch runs scratchMismatch under the server's lock.
func checkScratch(t *testing.T, ns *NetServer) {
	t.Helper()
	var err error
	ns.WithCore(func(c *Core) { err = scratchMismatch(c) })
	if err != nil {
		t.Fatal(err)
	}
}
