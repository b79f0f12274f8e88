package constraint

import (
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
	idx   *model.TableIndex // the index eng listens to
	eng   *deltaAdj         // the delta-driven repair engine

	removed  []bool
	assigned []model.RowID // assigned[t] = probable row currently matched, "" if none

	// active caches the active template (removed rows excluded; rows shared
	// with tmpl, never mutated). A template removal resets it to the zero
	// value (nil Schema), which activeTemplate takes as "rebuild".
	active Template

	// Stats for benchmarks and reports. AugmentVisits counts the adjacency
	// entries the augmenting searches read.
	Repairs       int
	Inserts       int
	Removals      int
	Augments      int
	AugmentVisits int

	// Scope of the last incremental repair (LastDirty, Unmatched).
	lastDirty int
	unmatched int
}

// NewPlanner returns a planner for the given template and scoring function
// that repairs from idx's probable-set deltas: a listener registered on the
// index maintains a persistent template×probable-row adjacency (one list per
// class of identical template rows) and a matching that survives from one
// repair to the next, so a repair re-validates and re-augments only the
// template rows a delta dirtied. Per-repair cost follows the probable-set
// delta, with no term linear in |T| or |P| outside the augmenting searches
// (a search is a first-fit walk and can cascade through every holder of a
// class).
//
// The index must be attached to the replica Repair is called with (e.g. via
// rep.SetObserver), so it reflects every applied message.
func NewPlanner(t Template, score model.ScoreFunc, idx *model.TableIndex) *Planner {
	p := &Planner{
		tmpl:     t.Clone(),
		score:    score,
		idx:      idx,
		removed:  make([]bool, len(t.Rows)),
		assigned: make([]model.RowID, len(t.Rows)),
	}
	p.eng = newDeltaAdj(p)
	idx.AddDeltaListener(p.eng)
	for _, r := range idx.Probable() {
		p.eng.ProbableAdded(r)
	}
	return p
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

// LastDirty reports how many template rows the last Repair re-validated: 0
// means it returned without looking at the matching.
func (p *Planner) LastDirty() int { return p.lastDirty }

// Unmatched reports how many active template rows the last Repair left
// without a probable row, each behind an insert it planned; they are matched
// by the repair that follows the insert.
func (p *Planner) Unmatched() int { return p.unmatched }

// Repair revalidates the matching against the replica's current state and
// returns the actions needed to restore the PRI. Planned insertions are
// treated as satisfying their template row (the caller must execute them);
// the next Repair then matches the actually-inserted rows.
//
// The persistent adjacency maintained by the deltaAdj listener replaces a
// per-call rebuild, and the matching it keeps across repairs replaces a
// per-call seeding, so the only work left is re-validating the templates a
// delta dirtied and augmenting the ones that lost their row. Step for step
// it mirrors the from-scratch repair the tests keep as its spec — seed the
// matching with every still-probable assigned row, augment the free
// templates in template order over rows sorted by id, then walk the
// insert / shuffle / remove ladder — so the two produce identical actions
// and assignments. When nothing is dirty every active template still holds
// a probable row: the spec would seed them all, augment nothing and plan
// nothing, so the repair returns.
func (p *Planner) Repair(rep *sync.Replica) []Action {
	p.Repairs++
	// Flush the index so every delta up to the replica's current state has
	// reached the engine (Version is the cheapest flushing query).
	p.idx.Version()
	e := p.eng
	p.lastDirty, p.unmatched = len(e.dirty), 0
	if len(e.dirty) == 0 {
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

	// Handle templates that no existing probable row can satisfy (§4.2): insert
	// the template row's value if the new row would be probable; otherwise
	// shuffle, handing this template a matched, insertable template's row and
	// inserting for that one instead; otherwise drop the template row. A
	// template left unmatched behind a planned insert is dirty for the next
	// repair, which augments it onto the inserted row.
	var actions []Action
	for _, t := range free {
		if p.insertable(rep, t) {
			actions = append(actions, p.insertAction(t))
			e.markDirty(t)
			continue
		}
		shuffled := false
		for t2 := range p.tmpl.Rows {
			if t2 == t || p.removed[t2] || e.matchT[t2] == -1 || !p.insertable(rep, t2) {
				continue
			}
			saved := e.matchT[t2]
			e.unmatch(t2)
			p.Augments++
			if e.augment(t) {
				actions = append(actions, p.insertAction(t2))
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
		e.removeTemplate(t)
		actions = append(actions, Action{Kind: ActionRemoveTemplate, Template: t})
	}
	p.unmatched = len(e.dirty)
	return actions
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
	return WouldBeProbableIndexed(p.idx, rep.Schema(), p.score, seed, up, down)
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
