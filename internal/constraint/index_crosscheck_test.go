package constraint

import (
	"fmt"
	"math/rand"
	"testing"

	"crowdfill/internal/model"
	"crowdfill/internal/sync"
)

// TestTableIndexMatchesFromScratch drives a replica with randomized valid
// message sequences (the same op mix as the sync package's netSim
// convergence harness, which is test-internal there and mirrored here) and
// checks after every applied message that the incrementally maintained
// TableIndex agrees exactly with the from-scratch Probable and FinalTable
// computations — and that its final-winner counter moved iff the from-scratch
// final set changed, including across in-place snapshot reloads (TableReset).
func TestTableIndexMatchesFromScratch(t *testing.T) {
	schema := model.MustSchema("kv", []model.Column{
		{Name: "k1", Type: model.TypeString},
		{Name: "k2", Type: model.TypeString},
		{Name: "v", Type: model.TypeString},
	}, "k1", "k2")

	scores := map[string]model.ScoreFunc{
		"default":   model.DefaultScore,
		"majority3": model.MajorityShortcut(3),
	}
	for name, score := range scores {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				runIndexCrossCheck(t, schema, score, seed, 400)
			}
		})
	}
}

func runIndexCrossCheck(t *testing.T, schema *model.Schema, score model.ScoreFunc, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rep := sync.NewReplica(schema)
	idx := model.NewTableIndex(rep.Table(), score)
	rep.SetObserver(idx)
	gen := sync.NewIDGen(fmt.Sprintf("s%d", seed))

	var castUp, castDown []model.Vector
	prevFinal, prevVer := model.FinalTable(rep.Table(), score), idx.FinalVersion()
	var moves, holds int
	for i := 0; i < ops; i++ {
		if i%50 == 49 {
			// Reload in place: every row is a fresh object, so the winners
			// change exactly when there are any.
			if err := rep.LoadSnapshot(rep.TakeSnapshot()); err != nil {
				t.Fatalf("seed %d op %d: reload: %v", seed, i, err)
			}
			castUp, castDown = nil, nil
		} else {
			doRandomOp(t, rep, gen, rng.Intn, &castUp, &castDown)
		}
		assertIndexAgrees(t, idx, rep, score, seed, i)

		final, ver := model.FinalTable(rep.Table(), score), idx.FinalVersion()
		changed := len(final) != len(prevFinal)
		for j := 0; !changed && j < len(final); j++ {
			changed = final[j] != prevFinal[j]
		}
		if moved := ver != prevVer; moved != changed {
			t.Fatalf("seed %d op %d: final-winner counter moved=%v (%d -> %d), from-scratch final changed=%v",
				seed, i, moved, prevVer, ver, changed)
		}
		if got := idx.FinalRows(); got != len(final) {
			t.Fatalf("seed %d op %d: FinalRows = %d, want %d", seed, i, got, len(final))
		}
		if changed {
			moves++
		} else {
			holds++
		}
		prevFinal, prevVer = final, ver
	}
	if moves == 0 || holds == 0 {
		t.Fatalf("seed %d: op mix too tame: final set moved on %d ops, held on %d", seed, moves, holds)
	}

	// A snapshot reload must reset and rebuild the index, not corrupt it.
	snap := rep.TakeSnapshot()
	rep2 := sync.NewReplica(schema)
	idx2 := model.NewTableIndex(rep2.Table(), score)
	rep2.SetObserver(idx2)
	if err := rep2.LoadSnapshot(snap); err != nil {
		t.Fatalf("seed %d: load: %v", seed, err)
	}
	assertIndexAgrees(t, idx2, rep2, score, seed, -1)
}

// doRandomOp performs one random valid primitive op against the replica
// (insert / fill / upvote / downvote / undo-upvote / undo-downvote), the same
// action mix the convergence netSim generates. intn(n) picks in [0, n).
func doRandomOp(t *testing.T, rep *sync.Replica, gen *sync.IDGen, intn func(int) int, castUp, castDown *[]model.Vector) {
	t.Helper()
	rows := rep.Table().Rows()
	type action struct {
		kind int
		row  *model.Row
		col  int
	}
	actions := []action{{kind: 0}} // insert is always possible
	for _, r := range rows {
		for col := range r.Vec {
			if !r.Vec[col].Set {
				actions = append(actions, action{kind: 1, row: r, col: col})
			}
		}
		if r.Vec.IsComplete() {
			actions = append(actions, action{kind: 2, row: r})
		}
		if r.Vec.IsPartial() {
			actions = append(actions, action{kind: 3, row: r})
		}
	}
	if len(*castUp) > 0 {
		actions = append(actions, action{kind: 4})
	}
	if len(*castDown) > 0 {
		actions = append(actions, action{kind: 5})
	}
	a := actions[intn(len(actions))]
	var err error
	switch a.kind {
	case 0:
		_, err = rep.Insert(gen.Next())
	case 1:
		_, err = rep.Fill(a.row.ID, a.col, fmt.Sprintf("v%d", intn(3)), gen.Next())
	case 2:
		var m sync.Message
		m, err = rep.Upvote(a.row.ID)
		if err == nil {
			*castUp = append(*castUp, m.Vec.Clone())
		}
	case 3:
		var m sync.Message
		m, err = rep.Downvote(a.row.ID)
		if err == nil {
			*castDown = append(*castDown, m.Vec.Clone())
		}
	case 4:
		j := intn(len(*castUp))
		v := (*castUp)[j]
		*castUp = append((*castUp)[:j], (*castUp)[j+1:]...)
		_, err = rep.UndoUpvote(v)
	case 5:
		j := intn(len(*castDown))
		v := (*castDown)[j]
		*castDown = append((*castDown)[:j], (*castDown)[j+1:]...)
		_, err = rep.UndoDownvote(v)
	}
	if err != nil {
		t.Fatalf("op kind %d: %v", a.kind, err)
	}
}

func assertIndexAgrees(t *testing.T, idx *model.TableIndex, rep *sync.Replica, score model.ScoreFunc, seed int64, op int) {
	t.Helper()
	wantProb := Probable(rep.Table(), score)
	gotProb := idx.Probable()
	if !sameRows(gotProb, wantProb) {
		t.Fatalf("seed %d op %d: probable mismatch\n got %v\nwant %v",
			seed, op, rowIDs(gotProb), rowIDs(wantProb))
	}
	wantFinal := model.FinalTable(rep.Table(), score)
	gotFinal := idx.FinalTable()
	if !sameRows(gotFinal, wantFinal) {
		t.Fatalf("seed %d op %d: final table mismatch\n got %v\nwant %v",
			seed, op, rowIDs(gotFinal), rowIDs(wantFinal))
	}
}

func sameRows(a, b []*model.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Up != b[i].Up || a[i].Down != b[i].Down {
			return false
		}
	}
	return true
}

func rowIDs(rows []*model.Row) []model.RowID {
	out := make([]model.RowID, len(rows))
	for i, r := range rows {
		out[i] = r.ID
	}
	return out
}
