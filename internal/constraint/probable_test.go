package constraint

import (
	"testing"

	"crowdfill/internal/model"
)

func TestProbableConditions(t *testing.T) {
	s := soccerSchema(t)
	f := model.MajorityShortcut(3)
	c := model.NewCandidate(s)
	put := func(id string, vec model.Vector, up, down int) {
		c.Put(&model.Row{ID: model.RowID(id), Vec: vec, Up: up, Down: down})
	}
	// Condition 1: key-incomplete rows with zero score are probable.
	put("r-01", model.NewVector(5), 0, 0)                         // probable
	put("r-02", model.VectorOf("Neymar", "", "FW", "", ""), 0, 1) // score 0 (1 vote) -> probable
	put("r-03", model.VectorOf("Kaka", "", "", "", ""), 0, 2)     // score -2 -> not probable
	// Condition 2: key-complete zero-score rows, unless a same-key row
	// scores positive.
	put("r-04", model.VectorOf("Xavi", "Spain", "", "", ""), 0, 0)        // probable
	put("r-05", model.VectorOf("Pele", "Brazil", "FW", "", ""), 0, 0)     // same key as r-06 which is positive -> NOT probable
	put("r-06", model.VectorOf("Pele", "Brazil", "FW", "92", "77"), 3, 0) // complete, +3, max -> probable
	// Condition 3: complete positive rows must be undominated; ties break
	// to lowest id.
	put("r-07", model.VectorOf("Romario", "Brazil", "FW", "70", "55"), 2, 0) // tie with r-08
	put("r-08", model.VectorOf("Romario", "Brazil", "MF", "70", "55"), 2, 0) // tie, loses on id
	put("r-09", model.VectorOf("Zico", "Brazil", "MF", "71", "48"), 2, 3)    // negative -> not probable

	got := map[model.RowID]bool{}
	for _, r := range Probable(c, f) {
		got[r.ID] = true
	}
	want := map[model.RowID]bool{
		"r-01": true, "r-02": true, "r-04": true, "r-06": true, "r-07": true,
	}
	for id := range want {
		if !got[id] {
			t.Errorf("row %s should be probable", id)
		}
	}
	for id := range got {
		if !want[id] {
			t.Errorf("row %s should NOT be probable", id)
		}
	}
}

func TestProbableSortedByID(t *testing.T) {
	s := soccerSchema(t)
	c := model.NewCandidate(s)
	for _, id := range []string{"z-1", "a-1", "m-1"} {
		c.Put(&model.Row{ID: model.RowID(id), Vec: model.NewVector(5)})
	}
	p := Probable(c, model.DefaultScore)
	if len(p) != 3 || p[0].ID != "a-1" || p[1].ID != "m-1" || p[2].ID != "z-1" {
		t.Fatalf("Probable order wrong: %v", p)
	}
}

// TestWouldBeProbable runs each case through the scan spec and through
// WouldBeProbableIndexed over a TableIndex of the same table.
func TestWouldBeProbable(t *testing.T) {
	s := soccerSchema(t)
	f := model.MajorityShortcut(3)
	c := model.NewCandidate(s)
	c.Put(&model.Row{ID: "r-01", Vec: model.VectorOf("Pele", "Brazil", "FW", "92", "77"), Up: 3, Down: 0})
	idx := model.NewTableIndex(c, f)

	check := func(want bool, v model.Vector, up, down int, what string) {
		t.Helper()
		if got := WouldBeProbable(c, f, v, up, down); got != want {
			t.Errorf("%s: WouldBeProbable = %v, want %v", what, got, want)
		}
		if got := WouldBeProbableIndexed(idx, s, f, v, up, down); got != want {
			t.Errorf("%s: WouldBeProbableIndexed = %v, want %v", what, got, want)
		}
	}
	check(true, model.VectorOf("", "", "FW", "", ""), 0, 0, "clean partial seed")
	check(false, model.VectorOf("", "", "FW", "", ""), 0, 2, "seed with inherited downvotes")
	check(false, model.VectorOf("Pele", "Brazil", "", "", ""), 0, 0, "seed whose key has a positive competitor")
	check(true, model.VectorOf("Xavi", "Spain", "", "", ""), 0, 0, "fresh-key seed")
	check(true, model.VectorOf("Zico", "Brazil", "MF", "71", "48"), 4, 0, "complete seed outscoring its competitors")

	// A complete seed tied with an incumbent loses the tie-break.
	r2 := &model.Row{ID: "r-02", Vec: model.VectorOf("Zico", "Brazil", "MF", "71", "48"), Up: 4, Down: 0}
	c.Put(r2)
	idx.RowAdded(r2)
	check(false, model.VectorOf("Zico", "Brazil", "MF", "71", "48"), 4, 0, "complete seed tied with the incumbent")
	// A partial seed inherits upvotes only if complete, so its score is 0;
	// with a positive same-key competitor it is not probable.
	check(false, model.VectorOf("Zico", "Brazil", "", "", ""), 5, 0, "partial seed with a positive competitor")
}

func TestMaxMatchingBasic(t *testing.T) {
	// Classic: 3 left, 3 right, perfect matching exists but needs augmenting.
	adj := [][]int{{0, 1}, {0}, {1, 2}}
	m := MaxMatching(adj, 3)
	if m.Size != 3 {
		t.Fatalf("matching size = %d, want 3", m.Size)
	}
	// Infeasible: two left vertices fight over one right vertex.
	m = MaxMatching([][]int{{0}, {0}}, 1)
	if m.Size != 1 {
		t.Fatalf("matching size = %d, want 1", m.Size)
	}
	// Empty graph.
	m = MaxMatching(nil, 0)
	if m.Size != 0 {
		t.Fatalf("empty matching size = %d", m.Size)
	}
}

// TestMaxMatchingAgainstBruteForce cross-checks the augmenting-path matcher
// against exhaustive search on small random graphs.
func TestMaxMatchingAgainstBruteForce(t *testing.T) {
	rng := newLCG(7)
	for trial := 0; trial < 200; trial++ {
		nl := 1 + int(rng.next(5))
		nr := 1 + int(rng.next(5))
		adj := make([][]int, nl)
		for i := range adj {
			for j := 0; j < nr; j++ {
				if rng.next(2) == 0 {
					adj[i] = append(adj[i], j)
				}
			}
		}
		got := MaxMatching(adj, nr).Size
		want := bruteMatch(adj, nr, 0, make([]bool, nr))
		if got != want {
			t.Fatalf("trial %d: MaxMatching = %d, brute force = %d, adj = %v", trial, got, want, adj)
		}
	}
}

func bruteMatch(adj [][]int, nr, i int, used []bool) int {
	if i == len(adj) {
		return 0
	}
	best := bruteMatch(adj, nr, i+1, used) // leave i unmatched
	for _, j := range adj[i] {
		if !used[j] {
			used[j] = true
			if v := 1 + bruteMatch(adj, nr, i+1, used); v > best {
				best = v
			}
			used[j] = false
		}
	}
	return best
}

type lcg struct{ s int64 }

func newLCG(seed int64) *lcg { return &lcg{s: seed} }

func (l *lcg) next(n int64) int64 {
	l.s = (l.s*6364136223846793005 + 1442695040888963407) % (1 << 31)
	if l.s < 0 {
		l.s = -l.s
	}
	return l.s % n
}

func TestMatchingUnmatch(t *testing.T) {
	m := MaxMatching([][]int{{0}, {1}}, 2)
	if m.Size != 2 {
		t.Fatalf("size = %d", m.Size)
	}
	m.Unmatch(0)
	if m.Size != 1 || m.Left[0] != -1 || m.Right[0] != -1 {
		t.Fatalf("Unmatch wrong: %+v", m)
	}
	m.Unmatch(0) // idempotent on unmatched vertex
	if m.Size != 1 {
		t.Fatalf("double Unmatch changed size")
	}
}
