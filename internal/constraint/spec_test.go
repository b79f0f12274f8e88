package constraint

import (
	"reflect"
	"slices"
	"testing"

	"crowdfill/internal/model"
	"crowdfill/internal/sync"
)

// Unmatch removes the pair containing left vertex t, if matched.
func (m *Matching) Unmatch(t int) {
	if p := m.Left[t]; p != -1 {
		m.Left[t] = -1
		m.Right[p] = -1
		m.Size--
	}
}

// Assignment returns the current template→row correspondence. Unmatched or
// removed templates map to "".
func (p *Planner) Assignment() []model.RowID {
	return append([]model.RowID(nil), p.assigned...)
}

// AssignedRow returns the probable row currently matched to template row t
// ("" when unmatched or removed) without copying the whole assignment.
func (p *Planner) AssignedRow(t int) model.RowID { return p.assigned[t] }

// specPlanner is the executable spec of one PRI repair (§4.2), kept beside
// the tests that hold the production Planner to it: every repair scans the
// table for its probable rows, rebuilds the template×probable adjacency from
// scratch, seeds the matching with the previous assignment, and augments
// every free template row. Planner.Repair must produce identical actions,
// assignments, removals and counters.
type specPlanner struct {
	tmpl     Template
	score    model.ScoreFunc
	removed  []bool
	assigned []model.RowID // assigned[t] = probable row matched to t, "" if none

	Repairs, Inserts, Removals, Augments int
}

func newSpecPlanner(t Template, score model.ScoreFunc) *specPlanner {
	return &specPlanner{
		tmpl:     t.Clone(),
		score:    score,
		removed:  make([]bool, len(t.Rows)),
		assigned: make([]model.RowID, len(t.Rows)),
	}
}

// specFrom returns a spec planner in p's current state: its template,
// removals and assignment.
func specFrom(p *Planner) *specPlanner {
	return &specPlanner{
		tmpl:     p.tmpl,
		score:    p.score,
		removed:  slices.Clone(p.removed),
		assigned: slices.Clone(p.assigned),
	}
}

// repairFull rebuilds the adjacency, seeds the matching with the still-valid
// previous assignment, augments every free template row and plans the
// insert / shuffle / remove ladder for the ones left free.
func (p *specPlanner) repairFull(rep *sync.Replica) []Action {
	p.Repairs++
	prob := Probable(rep.Table(), p.score)

	// Index probable rows and build adjacency for active template rows.
	rowIdx := make(map[model.RowID]int, len(prob))
	for i, r := range prob {
		rowIdx[r.ID] = i
	}
	active := make([]int, 0, len(p.tmpl.Rows)) // template indexes still in T
	for t := range p.tmpl.Rows {
		if !p.removed[t] {
			active = append(active, t)
		}
	}
	adj := make([][]int, len(active))
	for ai, t := range active {
		tr := p.tmpl.Rows[t]
		for pi, r := range prob {
			if p.tmpl.MatchCandidate(tr, r.Vec) {
				adj[ai] = append(adj[ai], pi)
			}
		}
	}

	// Seed the matching with still-valid previous assignments (only freed
	// template rows need augmenting searches).
	m := Matching{Left: make([]int, len(active)), Right: make([]int, len(prob))}
	for i := range m.Left {
		m.Left[i] = -1
	}
	for i := range m.Right {
		m.Right[i] = -1
	}
	for ai, t := range active {
		id := p.assigned[t]
		if id == "" {
			continue
		}
		pi, ok := rowIdx[id]
		if !ok || m.Right[pi] != -1 || !p.tmpl.MatchCandidate(p.tmpl.Rows[t], prob[pi].Vec) {
			continue
		}
		m.Left[ai] = pi
		m.Right[pi] = ai
		m.Size++
	}

	// Augment every free template row.
	var free []int // indexes into active
	for ai := range active {
		if m.Left[ai] == -1 {
			p.Augments++
			if m.Augment(adj, ai) {
				m.Size++
			} else {
				free = append(free, ai)
			}
		}
	}

	// Handle templates that no existing probable row can satisfy.
	var actions []Action
	for _, ai := range free {
		t := active[ai]
		if p.insertable(rep, t) {
			actions = append(actions, p.insertAction(t))
			continue
		}
		// Shuffle: find a matched, insertable template row t' that can give
		// up its row to an alternating path from t, so t becomes matched
		// and t' (insertable) becomes free instead.
		shuffled := false
		for bi, t2 := range active {
			if bi == ai || m.Left[bi] == -1 || !p.insertable(rep, t2) {
				continue
			}
			saved := m.Left[bi]
			m.Unmatch(bi)
			p.Augments++
			if m.Augment(adj, ai) {
				m.Size++
				actions = append(actions, p.insertAction(t2))
				shuffled = true
				break
			}
			// Restore t2's pairing.
			m.Left[bi] = saved
			m.Right[saved] = bi
			m.Size++
		}
		if shuffled {
			continue
		}
		// No option left: drop the template row (§4.2).
		p.removed[t] = true
		p.Removals++
		actions = append(actions, Action{Kind: ActionRemoveTemplate, Template: t})
	}

	// Persist the assignment for the next repair.
	for i := range p.assigned {
		p.assigned[i] = ""
	}
	for ai, t := range active {
		if pi := m.Left[ai]; pi != -1 {
			p.assigned[t] = prob[pi].ID
		}
	}
	return actions
}

func (p *specPlanner) insertAction(t int) Action {
	p.Inserts++
	seed := p.tmpl.Rows[t].EqVector()
	return Action{Kind: ActionInsert, Template: t, Seed: seed, Upvote: seed.IsComplete()}
}

// insertable is Planner.insertable answered by a table scan.
func (p *specPlanner) insertable(rep *sync.Replica, t int) bool {
	seed := p.tmpl.Rows[t].EqVector()
	return WouldBeProbable(rep.Table(), p.score, seed, rep.UH().Get(seed), rep.DH().SubsetSum(seed))
}

// WouldBeProbable is the scan spec of WouldBeProbableIndexed: whether a
// hypothetical new row with value v would be probable if inserted into c
// right now, given the vote histories it would inherit (up = uh if
// complete, down = subset sum of DH), with the same-key competition found
// by walking the table.
func WouldBeProbable(c *model.Candidate, f model.ScoreFunc, v model.Vector, inheritedUp, inheritedDown int) bool {
	s := c.Schema()
	up := 0
	if v.IsComplete() {
		up = inheritedUp
	}
	score := f(up, inheritedDown)
	if !v.KeyComplete(s) {
		return score == 0
	}
	// Key complete: look at competing rows with the same key.
	k := v.KeyOf(s)
	positive := false
	maxOther := 0
	c.Each(func(r *model.Row) {
		if !r.Vec.KeyComplete(s) || r.Vec.KeyOf(s) != k {
			return
		}
		sc := f(r.Up, r.Down)
		if sc > 0 {
			positive = true
			if sc > maxOther {
				maxOther = sc
			}
		}
	})
	if score == 0 {
		return !positive
	}
	if score > 0 && v.IsComplete() {
		// New row must not be dominated; ties lose to the incumbent (the
		// incumbent has the older id), so require strictly greater.
		return score > maxOther
	}
	return false
}

// checkedRepair runs p.Repair and replays it through a spec planner seeded
// with p's pre-repair assignment and removals, failing the test on any
// difference in actions, assignment or removals — early exits included.
func checkedRepair(t testing.TB, p *Planner, rep *sync.Replica) []Action {
	t.Helper()
	spec := specFrom(p)
	acts := p.Repair(rep)
	want := spec.repairFull(rep)
	if !reflect.DeepEqual(acts, want) {
		t.Fatalf("repair diverges from the spec: actions %v, spec %v", acts, want)
	}
	if !slices.Equal(p.assigned, spec.assigned) {
		t.Fatalf("repair diverges from the spec: assignment %v, spec %v", p.assigned, spec.assigned)
	}
	if !slices.Equal(p.removed, spec.removed) {
		t.Fatalf("repair diverges from the spec: removals %v, spec %v", p.removed, spec.removed)
	}
	return acts
}
