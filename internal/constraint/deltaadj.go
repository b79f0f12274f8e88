package constraint

import (
	"sort"

	"crowdfill/internal/model"
)

// eqKey identifies one (column, value) equality cell of a template row — the
// unit the delta adjacency's inverted index is keyed by.
type eqKey struct {
	col int
	val string
}

// deltaAdj is the incremental-repair engine behind Planner.UseIncremental:
// a persistent template×probable-row adjacency plus an epoch-stamped
// matching, maintained from model.TableIndex probable-set deltas so one
// PRI repair costs O(delta), not O(|T|·|P|).
//
// Structure:
//
//   - Every probable row ever seen occupies a slot; the row's adjacency
//     (which template rows it can satisfy, per Template.MatchCandidate) is
//     computed once on first sight, because a row's vector never changes
//     for its lifetime (fills replace rows wholesale, minting new ids).
//     Which templates to even check comes from an inverted index over the
//     templates' OpEq values: a row can only satisfy a template whose every
//     OpEq cell it contains, so templates are bucketed by their first OpEq
//     (column, value) — plus an "always" bucket for templates with no OpEq
//     cell — and a new row pulls only the buckets its set cells select.
//   - A row leaving the probable set merely marks its slot dead (O(1)):
//     vote changes move rows out of and back into the probable set without
//     changing their vectors, so the adjacency is kept and revived on
//     re-entry. Dead slots are compacted away once they outnumber the live
//     ones, keeping the amortized per-delta cost proportional to the delta.
//   - Per-template adjacency lists are kept sorted by row id — exactly the
//     exploration order the full-rebuild Repair uses (its probable rows
//     arrive sorted by id) — so the incremental augmenting searches visit
//     rows in the same order and reproduce the spec's assignments exactly.
//   - The matching is re-seeded from Planner.assigned at the start of every
//     repair (mirroring the spec's seeding step); the seed plus the
//     epoch-stamped matchR/seen arrays mean a repair clears O(|T|) state,
//     never O(|P|).
//
// The engine is driven inside index flushes (it implements
// model.ProbableDeltaListener); it never calls back into the index.
type deltaAdj struct {
	p *Planner

	// Inverted index over template OpEq values. Each active template row
	// appears in exactly one bucket: byEq under its first OpEq cell, or
	// always when it has none.
	always []int
	byEq   map[eqKey][]int

	// Probable-row slots. slots[s] is nil when the slot is free; live[s]
	// reports whether the slot's row is currently in the probable set.
	slots     []*model.Row
	live      []bool
	rowSlot   map[model.RowID]int
	freeSlots []int
	deadSlots int

	// adjT[t] lists the slots whose rows can satisfy template row t,
	// sorted by row id (dead slots included until compaction).
	adjT [][]int

	// Matching state. matchT[t] is the slot matched to template t (-1 when
	// unmatched); a slot s is matched iff matchREp[s] == repairEp, in which
	// case matchR[s] is its template. seenEp carries the augmenting
	// searches' visited marks, stamped with augEp.
	matchT   []int
	matchR   []int
	matchREp []uint64
	seenEp   []uint64
	repairEp uint64
	augEp    uint64

	freeT []int // scratch: templates still free after augmenting

	// stable: the last repair planned nothing and no row has entered or left
	// the probable set (nor the index reset) since — the next repair is a
	// no-op and Planner.Repair skips it.
	stable bool
}

func newDeltaAdj(p *Planner) *deltaAdj {
	e := &deltaAdj{
		p:       p,
		byEq:    make(map[eqKey][]int),
		rowSlot: make(map[model.RowID]int),
		adjT:    make([][]int, len(p.tmpl.Rows)),
		matchT:  make([]int, len(p.tmpl.Rows)),
	}
	for t, tr := range p.tmpl.Rows {
		if !p.removed[t] {
			e.indexTemplate(t, tr)
		}
	}
	return e
}

// indexTemplate files template row t under its inverted-index bucket.
func (e *deltaAdj) indexTemplate(t int, tr TemplateRow) {
	for col, pr := range tr {
		if pr.Op == OpEq {
			k := eqKey{col: col, val: pr.Val}
			e.byEq[k] = append(e.byEq[k], t)
			return
		}
	}
	e.always = append(e.always, t)
}

// removeTemplate drops template row t from the inverted index and releases
// its adjacency; the planner calls this when it removes t from T.
func (e *deltaAdj) removeTemplate(t int) {
	drop := func(lst []int) []int {
		for i, have := range lst {
			if have == t {
				return append(lst[:i], lst[i+1:]...)
			}
		}
		return lst
	}
	filed := false
	for col, pr := range e.p.tmpl.Rows[t] {
		if pr.Op == OpEq {
			k := eqKey{col: col, val: pr.Val}
			e.byEq[k] = drop(e.byEq[k])
			if len(e.byEq[k]) == 0 {
				delete(e.byEq, k)
			}
			filed = true
			break
		}
	}
	if !filed {
		e.always = drop(e.always)
	}
	e.adjT[t] = nil
}

// candidateTemplates visits every template row that could possibly match a
// row with vector v: the always bucket plus, for each set cell, the bucket
// of templates whose first OpEq cell is that (column, value). Each template
// lives in exactly one bucket, so no template is visited twice.
func (e *deltaAdj) candidateTemplates(v model.Vector, visit func(t int)) {
	for _, t := range e.always {
		visit(t) //lint:allow hotalloc non-escaping visit callback over index buckets
	}
	for col, cell := range v {
		if !cell.Set {
			continue
		}
		for _, t := range e.byEq[eqKey{col: col, val: cell.Val}] {
			visit(t) //lint:allow hotalloc non-escaping visit callback over index buckets
		}
	}
}

// allocSlot assigns a slot to a newly-seen probable row.
func (e *deltaAdj) allocSlot(r *model.Row) int {
	var s int
	if n := len(e.freeSlots); n > 0 {
		s = e.freeSlots[n-1]
		e.freeSlots = e.freeSlots[:n-1]
		e.slots[s] = r
		e.live[s] = true
		e.matchR[s], e.matchREp[s], e.seenEp[s] = -1, 0, 0
	} else {
		s = len(e.slots)
		e.slots = append(e.slots, r)
		e.live = append(e.live, true)
		e.matchR = append(e.matchR, -1)
		e.matchREp = append(e.matchREp, 0)
		e.seenEp = append(e.seenEp, 0)
	}
	e.rowSlot[r.ID] = s
	return s
}

// insertAdj adds slot s into template t's adjacency, keeping it sorted by
// row id.
func (e *deltaAdj) insertAdj(t, s int) {
	lst := e.adjT[t]
	id := e.slots[s].ID
	i := sort.Search(len(lst), func(i int) bool { return e.slots[lst[i]].ID >= id })
	lst = append(lst, 0)
	copy(lst[i+1:], lst[i:])
	lst[i] = s
	e.adjT[t] = lst
}

// compact drops dead slots and filters them out of every adjacency list.
// Triggered when dead slots outnumber live ones, so its O(|P| + Σ deg) cost
// amortizes to O(1) per delta.
func (e *deltaAdj) compact() {
	dead := make([]bool, len(e.slots)) //lint:allow hotalloc compaction amortizes to O(1) per delta; the scratch bitmap is its one allocation
	for s, r := range e.slots {
		if r != nil && !e.live[s] {
			dead[s] = true
			delete(e.rowSlot, r.ID)
			e.slots[s] = nil
			e.freeSlots = append(e.freeSlots, s)
		}
	}
	for t, lst := range e.adjT {
		out := lst[:0]
		for _, s := range lst {
			if !dead[s] {
				out = append(out, s)
			}
		}
		e.adjT[t] = out
	}
	e.deadSlots = 0
}

// --- model.ProbableDeltaListener ---

// ProbableAdded registers a row entering the probable set: a revival flips
// the existing slot live in O(1); a genuinely new row gets a slot and its
// adjacency, computed against only the templates the inverted index selects.
func (e *deltaAdj) ProbableAdded(r *model.Row) {
	e.stable = false
	if s, ok := e.rowSlot[r.ID]; ok {
		if !e.live[s] {
			e.live[s] = true
			e.slots[s] = r
			e.deadSlots--
		}
		return
	}
	s := e.allocSlot(r)
	e.candidateTemplates(r.Vec,
		//lint:allow hotalloc non-escaping visit callback
		func(t int) {
			if !e.p.removed[t] && e.p.tmpl.MatchCandidate(e.p.tmpl.Rows[t], r.Vec) {
				e.insertAdj(t, s)
			}
		})
}

// ProbableRemoved marks the row's slot dead. The adjacency is retained: if
// the removal is a vote flip the row will revive with the same vector, and
// if the row truly left the table the slot is reclaimed at the next compact.
func (e *deltaAdj) ProbableRemoved(r *model.Row) {
	e.stable = false
	s, ok := e.rowSlot[r.ID]
	if !ok || !e.live[s] {
		return
	}
	e.live[s] = false
	e.deadSlots++
	if e.deadSlots > (len(e.rowSlot)-e.deadSlots)+16 {
		e.compact()
	}
}

// ProbableUpdated is a vote change on a row that stayed probable: adjacency
// and matching depend only on the vector, so there is nothing to maintain.
func (e *deltaAdj) ProbableUpdated(*model.Row) {}

// IndexReset drops every slot and adjacency list; the index's rebuild
// re-delivers a ProbableAdded per surviving probable row, and the next
// repair re-seeds the matching from the planner's persisted assignment
// (exactly the spec's seeding step, so a snapshot reload does not perturb
// the assignment).
func (e *deltaAdj) IndexReset() {
	e.stable = false
	e.slots = nil
	e.live = nil
	e.rowSlot = make(map[model.RowID]int)
	e.freeSlots = nil
	e.deadSlots = 0
	e.matchR = nil
	e.matchREp = nil
	e.seenEp = nil
	for t := range e.adjT {
		e.adjT[t] = nil
	}
}

// --- matching operations (valid within one repair epoch) ---

// beginRepair opens a new matching epoch: every template and slot starts
// unmatched, at O(|T|) cost (slot state is invalidated by the epoch bump).
func (e *deltaAdj) beginRepair() {
	e.repairEp++
	for t := range e.matchT {
		e.matchT[t] = -1
	}
}

// slotHolder returns the template matched to slot s this epoch, or -1.
func (e *deltaAdj) slotHolder(s int) int {
	if e.matchREp[s] == e.repairEp {
		return e.matchR[s]
	}
	return -1
}

// match pairs template t with slot s.
func (e *deltaAdj) match(t, s int) {
	e.matchT[t] = s
	e.matchR[s] = t
	e.matchREp[s] = e.repairEp
}

// unmatchSlot frees slot s (its template's matchT entry is the caller's to
// fix up).
func (e *deltaAdj) unmatchSlot(s int) { e.matchREp[s] = 0 }

// augment searches for an augmenting path from free template t over the
// persistent adjacency — the same alternating-path search, in the same
// sorted-by-row-id exploration order, as the full-rebuild spec.
func (e *deltaAdj) augment(t int) bool {
	e.augEp++
	return e.kuhn(t)
}

func (e *deltaAdj) kuhn(t int) bool {
	for _, s := range e.adjT[t] {
		if !e.live[s] || e.seenEp[s] == e.augEp {
			continue
		}
		e.seenEp[s] = e.augEp
		if h := e.slotHolder(s); h == -1 || e.kuhn(h) {
			e.match(t, s)
			return true
		}
	}
	return false
}
