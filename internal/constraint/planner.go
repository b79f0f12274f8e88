package constraint

import (
	"fmt"
	"slices"

	"crowdfill/internal/model"
	"crowdfill/internal/sync"
)

// ActionKind enumerates the Central Client actions a PRI repair can demand.
type ActionKind int

const (
	// ActionInsert inserts a new row seeded with a template row's OpEq
	// values (insert + fills + optional auto-upvote when the seed is a
	// complete row, per §4.2 initialization).
	ActionInsert ActionKind = iota
	// ActionRemoveTemplate drops a template row that can no longer be
	// satisfied — the paper's last-resort reduction of T, possibly
	// violating the user's original intention (§4.2).
	ActionRemoveTemplate
)

// Action is one planned Central Client step.
type Action struct {
	Kind     ActionKind
	Template int          // index into the original template rows
	Seed     model.Vector // ActionInsert: values to fill after inserting
	Upvote   bool         // ActionInsert: upvote after seeding (complete template rows)
}

// Planner maintains the Probable Rows Invariant (§4.1): each template row t
// corresponds to a unique probable row r with r ⊇ t. It incrementally keeps
// a maximum bipartite matching between template rows and probable rows; when
// a change leaves a template row free and no augmenting path exists, it
// plans a row insertion (when the inserted row would be probable), attempts
// to shuffle the matching so a different, insertable template row becomes
// free, or removes the template row.
type Planner struct {
	tmpl  Template
	score model.ScoreFunc
	idx   *model.TableIndex // the index eng listens to (UseIncremental); nil on the spec path
	eng   *deltaAdj         // optional: delta-driven repair engine (UseIncremental)
	debug bool              // cross-check incremental repairs against the spec

	removed  []bool
	assigned []model.RowID // assigned[t] = probable row currently matched, "" if none

	// active caches the active template (removed rows excluded; rows shared
	// with tmpl, never mutated). A template removal resets it to the zero
	// value (nil Schema), which activeTemplate takes as "rebuild".
	active Template

	// Stats for benchmarks and reports.
	Repairs  int
	Inserts  int
	Removals int
	Augments int

	// Scope of the last incremental repair (LastDirty, Unmatched).
	lastDirty int
	unmatched int
}

// NewPlanner returns a planner for the given template and scoring function.
func NewPlanner(t Template, score model.ScoreFunc) *Planner {
	return &Planner{
		tmpl:     t.Clone(),
		score:    score,
		removed:  make([]bool, len(t.Rows)),
		assigned: make([]model.RowID, len(t.Rows)),
	}
}

// Template returns a copy of the active template (removed rows excluded),
// for final-constraint checking and compensation estimation. The copy is the
// caller's to keep; SatisfiedBy answers the per-message question without it.
func (p *Planner) Template() Template { return p.activeTemplate().Clone() }

// activeTemplate returns the cached active template, rebuilding it after a
// removal. Callers must not modify it.
func (p *Planner) activeTemplate() Template {
	if p.active.Schema == nil {
		p.active = Template{Schema: p.tmpl.Schema, Rows: make([]TemplateRow, 0, p.ActiveRows())}
		for i, tr := range p.tmpl.Rows {
			if !p.removed[i] {
				p.active.Rows = append(p.active.Rows, tr)
			}
		}
	}
	return p.active
}

// SatisfiedBy reports whether the final table satisfies the active template
// (Template.SatisfiedBy against the cached active template — no copy).
func (p *Planner) SatisfiedBy(final []*model.Row) bool {
	return p.activeTemplate().SatisfiedBy(final)
}

// RemovedCount returns how many template rows have been dropped.
func (p *Planner) RemovedCount() int { return p.Removals }

// ActiveRows returns how many template rows are still in T.
func (p *Planner) ActiveRows() int { return len(p.tmpl.Rows) - p.Removals }

// InitActions returns the startup actions: populate the candidate table with
// the template rows, upvoting complete ones (§4.2 initialization).
func (p *Planner) InitActions() []Action {
	var out []Action
	for i, tr := range p.tmpl.Rows {
		seed := tr.EqVector()
		out = append(out, Action{
			Kind:     ActionInsert,
			Template: i,
			Seed:     seed,
			Upvote:   seed.IsComplete(),
		})
	}
	return out
}

// Assignment returns the current template→row correspondence (for tests and
// introspection). Unmatched or removed templates map to "".
func (p *Planner) Assignment() []model.RowID {
	return append([]model.RowID(nil), p.assigned...)
}

// AssignedRow returns the probable row currently matched to template row t
// ("" when unmatched or removed) without copying the whole assignment.
func (p *Planner) AssignedRow(t int) model.RowID { return p.assigned[t] }

// UseIncremental switches Repair to the delta-driven fast path: a listener
// registered on the index maintains a persistent template×probable-row
// adjacency (one list per class of identical template rows) and a matching
// that survives from one repair to the next, and the repair re-validates and
// re-augments only the template rows a delta dirtied — so per-repair cost
// follows the probable-set delta, with no term linear in |T| or |P| outside
// the augmenting searches (a search is the spec's first-fit walk and can
// cascade through every holder of a class). The full-rebuild path remains the
// executable spec (and stays selected when UseIncremental is not called);
// both produce identical actions and assignments.
//
// The index must be attached to the same replica Repair is called with (e.g.
// via rep.SetObserver), so it reflects every applied message. Call once,
// before the first Repair.
func (p *Planner) UseIncremental(idx *model.TableIndex) {
	p.idx = idx
	p.eng = newDeltaAdj(p)
	idx.AddDeltaListener(p.eng)
	for _, r := range idx.Probable() {
		p.eng.ProbableAdded(r)
	}
}

// SetDebug enables the opt-in cross-check mode: every incremental Repair is
// replayed through the full-rebuild spec on a shadow planner and the two
// must produce identical actions, assignments, and removals, panicking on
// divergence. Expensive (it restores the O(|T|·|P|) spec cost); tests only.
func (p *Planner) SetDebug(on bool) { p.debug = on }

// Mode reports which repair path Repair runs ("full-rebuild" or
// "incremental"), for stats and reports.
func (p *Planner) Mode() string {
	if p.eng != nil {
		return "incremental"
	}
	return "full-rebuild"
}

// LastDirty reports how many template rows the last Repair re-validated: 0
// means it returned without looking at the matching. Incremental mode only
// (always 0 under full rebuild, which re-seeds every row every time).
func (p *Planner) LastDirty() int { return p.lastDirty }

// Unmatched reports how many active template rows the last Repair left
// without a probable row, each behind an insert it planned; they are matched
// by the repair that follows the insert. Incremental mode only.
func (p *Planner) Unmatched() int { return p.unmatched }

// Repair revalidates the matching against the replica's current state and
// returns the actions needed to restore the PRI. Planned insertions are
// treated as satisfying their template row (the caller must execute them);
// the next Repair then matches the actually-inserted rows.
//
// With UseIncremental configured this runs the delta-driven fast path;
// otherwise the full-rebuild spec below.
//
//lint:hotpath
func (p *Planner) Repair(rep *sync.Replica) []Action {
	if p.eng != nil {
		return p.repairIncremental(rep)
	}
	return p.repairFull(rep) //lint:allow hotalloc full-rebuild spec path; the configured hot path is the incremental engine
}

// repairFull is the executable spec of one PRI repair: rebuild the
// template×probable adjacency from scratch, seed the matching with the
// previous assignment, and augment every free template row. The incremental
// path must produce byte-identical actions and assignments; tests and the
// planner's debug mode cross-check that.
func (p *Planner) repairFull(rep *sync.Replica) []Action {
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

	// Seed the matching with still-valid previous assignments (incremental
	// maintenance: only freed template rows need augmenting searches).
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
		p.active = Template{}
		p.Removals++
		actions = append(actions, Action{Kind: ActionRemoveTemplate, Template: t})
	}

	// Persist the assignment for the next incremental repair.
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

// repairIncremental is the delta-driven fast path: the persistent adjacency
// maintained by the deltaAdj listener replaces the per-call rebuild, and the
// matching it keeps across repairs replaces the per-call seeding, so the only
// work left is re-validating the templates a delta dirtied and augmenting the
// ones that lost their row. Step for step it mirrors repairFull — same
// seeding rule, same template order, same sorted-by-row-id exploration — so
// the two paths produce identical actions and assignments. When nothing is
// dirty every active template still holds a probable row: the spec would
// seed them all, augment nothing and plan nothing, so the repair returns.
func (p *Planner) repairIncremental(rep *sync.Replica) []Action {
	var preAssigned []model.RowID
	var preRemoved []bool
	if p.debug {
		preAssigned = append([]model.RowID(nil), p.assigned...) //lint:allow hotalloc debug-mode snapshot for the cross-check replay
		preRemoved = append([]bool(nil), p.removed...)          //lint:allow hotalloc debug-mode snapshot for the cross-check replay
	}

	p.Repairs++
	// Flush the index so every delta up to the replica's current state has
	// reached the engine (Version is the cheapest flushing query).
	p.idx.Version()
	e := p.eng
	p.lastDirty, p.unmatched = len(e.dirty), 0
	if len(e.dirty) == 0 {
		if p.debug {
			p.crossCheckRepair(rep, preAssigned, preRemoved, nil) //lint:allow hotalloc debug-only replay through the full-rebuild spec
		}
		return nil
	}

	// Re-validate every dirty template by the spec's seeding rule — all of
	// them before the first search, which may route through any kept pair.
	slices.Sort(e.dirty)
	free := e.freeT[:0]
	for _, t := range e.dirty {
		e.isDirty[t] = false
		if !e.revalidate(t) {
			free = append(free, t)
		}
	}
	e.dirty = e.dirty[:0]

	// Augment every free template row, in template order, keeping in free
	// only the ones no augmenting path reaches.
	n := 0
	for _, t := range free {
		p.Augments++
		if !e.augment(t) {
			free[n] = t
			n++
		}
	}
	free = free[:n]
	e.freeT = free

	// Handle templates that no existing probable row can satisfy — the same
	// insert / shuffle / remove ladder as the spec. A template left unmatched
	// behind a planned insert is dirty for the next repair, which augments it
	// onto the inserted row.
	var actions []Action
	for _, t := range free {
		//lint:allow hotalloc insertion planning runs only for freed template rows (the rare augment ladder), off the per-delta path
		if p.insertable(rep, t) {
			actions = append(actions, p.insertAction(t)) //lint:allow hotalloc seeding an insert action is rare-path work for a freed template row
			e.markDirty(t)
			continue
		}
		shuffled := false
		for t2 := range p.tmpl.Rows {
			//lint:allow hotalloc insertion planning runs only for freed template rows (the rare augment ladder), off the per-delta path
			if t2 == t || p.removed[t2] || e.matchT[t2] == -1 || !p.insertable(rep, t2) {
				continue
			}
			saved := e.matchT[t2]
			e.unmatch(t2)
			p.Augments++
			if e.augment(t) {
				actions = append(actions, p.insertAction(t2)) //lint:allow hotalloc seeding an insert action is rare-path work for a freed template row
				e.markDirty(t2)
				shuffled = true
				break
			}
			e.match(t2, saved)
		}
		if shuffled {
			continue
		}
		p.removed[t] = true
		p.active = Template{}
		p.Removals++
		e.removeTemplate(t) //lint:allow hotalloc template removal is the last-resort action (section 4.2), not the per-delta path
		actions = append(actions, Action{Kind: ActionRemoveTemplate, Template: t})
	}
	p.unmatched = len(e.dirty)

	if p.debug {
		p.crossCheckRepair(rep, preAssigned, preRemoved, actions) //lint:allow hotalloc debug-only replay through the full-rebuild spec
	}
	return actions
}

// crossCheckRepair replays the repair just performed through the
// full-rebuild spec, starting from the captured pre-repair state, and panics
// if the spec's actions, assignment, or removals differ (debug mode only).
func (p *Planner) crossCheckRepair(rep *sync.Replica, preAssigned []model.RowID, preRemoved []bool, actions []Action) {
	spec := &Planner{
		tmpl:     p.tmpl,
		score:    p.score,
		removed:  preRemoved,
		assigned: preAssigned,
	}
	specActions := spec.repairFull(rep)
	if len(specActions) != len(actions) {
		panic(fmt.Sprintf("constraint: incremental repair divergence: %d actions, spec %d (incr %v, spec %v)",
			len(actions), len(specActions), actions, specActions))
	}
	for i := range actions {
		a, b := actions[i], specActions[i]
		if a.Kind != b.Kind || a.Template != b.Template || a.Upvote != b.Upvote || !a.Seed.Equal(b.Seed) {
			panic(fmt.Sprintf("constraint: incremental repair divergence at action %d: incr %+v, spec %+v", i, a, b))
		}
	}
	for t := range p.assigned {
		if p.assigned[t] != spec.assigned[t] {
			panic(fmt.Sprintf("constraint: incremental repair divergence: template %d assigned %q, spec %q",
				t, p.assigned[t], spec.assigned[t]))
		}
		if p.removed[t] != spec.removed[t] {
			panic(fmt.Sprintf("constraint: incremental repair divergence: template %d removed=%v, spec %v",
				t, p.removed[t], spec.removed[t]))
		}
	}
}

func (p *Planner) insertAction(t int) Action {
	p.Inserts++
	seed := p.tmpl.Rows[t].EqVector()
	return Action{Kind: ActionInsert, Template: t, Seed: seed, Upvote: seed.IsComplete()}
}

// insertable reports whether inserting template row t's seed value now would
// produce a probable row, accounting for the vote counts the new row would
// inherit from the histories.
func (p *Planner) insertable(rep *sync.Replica, t int) bool {
	seed := p.tmpl.Rows[t].EqVector()
	up := rep.UH().Get(seed)
	down := rep.DH().SubsetSum(seed)
	if p.idx != nil {
		return WouldBeProbableIndexed(p.idx, rep.Schema(), p.score, seed, up, down)
	}
	return WouldBeProbable(rep.Table(), p.score, seed, up, down)
}

// CheckPRI verifies the Probable Rows Invariant against the replica: every
// active template row must have a distinct probable row subsuming it. Used
// by tests and the simulation harness.
func (p *Planner) CheckPRI(rep *sync.Replica) bool {
	prob := Probable(rep.Table(), p.score)
	act := p.Template()
	adj := make([][]int, len(act.Rows))
	for ti, tr := range act.Rows {
		for pi, r := range prob {
			if act.MatchCandidate(tr, r.Vec) {
				adj[ti] = append(adj[ti], pi)
			}
		}
	}
	return MaxMatching(adj, len(prob)).Size == len(act.Rows)
}
