package constraint

import (
	"fmt"
	"sort"
	"strings"

	"crowdfill/internal/model"
)

// eqKey identifies one (column, value) equality cell of a template row — the
// unit the delta adjacency's inverted index is keyed by.
type eqKey struct {
	col int
	val string
}

// deltaAdj is the repair engine behind Planner.Repair: a persistent
// template×probable-row adjacency plus a matching that lives across repairs,
// maintained from model.TableIndex probable-set deltas so one PRI repair
// costs what the delta dirtied: no rebuild (O(|T|·|P|)) and no pass over T,
// leaving the augmenting searches as the only term that can grow with |T| —
// each is the spec's first-fit walk, up to one hop per holder of a class.
// The spec is the from-scratch repair kept in the package's tests
// (specPlanner), which rebuilds the adjacency and re-seeds the matching on
// every call; the equivalence tests hold this engine to it.
//
// Structure:
//
//   - Template rows with identical predicates form a class. A cardinality
//     constraint is absorbed as n empty template rows (§2.3), so real
//     templates are mostly one big class; every member of a class is adjacent
//     to exactly the same probable rows, so the class — not the template —
//     owns the adjacency list and the inverted-index entry.
//   - Every probable row ever seen occupies a slot; the row's adjacency
//     (which classes it can satisfy, per Template.MatchCandidate) is computed
//     once on first sight, because a row's vector never changes for its
//     lifetime (fills replace rows wholesale, minting new ids). Which classes
//     to even check comes from an inverted index over the classes' OpEq
//     values: a row can only satisfy a class whose every OpEq cell it
//     contains, so classes are bucketed by their first OpEq (column, value) —
//     plus an "always" bucket for classes with no OpEq cell — and a new row
//     pulls only the buckets its set cells select.
//   - A row leaving the probable set merely marks its slot dead (O(1)):
//     vote changes move rows out of and back into the probable set without
//     changing their vectors, so the adjacency is kept and revived on
//     re-entry. Dead slots are compacted away once they outnumber the live
//     ones, keeping the amortized per-delta cost proportional to the delta.
//   - Per-class adjacency lists are kept sorted by row id — exactly the
//     spec's exploration order (its probable rows arrive sorted by id) — so
//     the augmenting searches visit rows in the same order and reproduce the
//     spec's assignments exactly.
//   - The matching persists: matchT/matchR hold it between repairs and
//     Planner.assigned mirrors it (match writes assigned[t], unmatch clears
//     it). A repair looks only at the dirty templates — see markDirty — so a
//     message that frees no template costs the repair nothing.
//
// The engine is driven inside index flushes (it implements
// model.ProbableDeltaListener); it never calls back into the index.
type deltaAdj struct {
	p *Planner

	// Template classes. class[t] is template row t's class; classRow[c] is
	// the predicate row its members share and classLive[c] how many of them
	// are still in T.
	class     []int
	classRow  []TemplateRow
	classLive []int

	// Inverted index over class OpEq values. Each class with a live member
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

	// adj[c] lists the slots whose rows can satisfy class c's template rows,
	// sorted by row id (dead slots included until compaction).
	adj [][]int

	// The matching. matchT[t] is the slot matched to template t and
	// matchR[s] the template matched to slot s, -1 when unmatched. seenEp
	// carries the augmenting searches' visited marks, stamped with augEp;
	// cur[c] is the search's scan position in adj[c], valid while curEp[c]
	// equals augEp (see kuhn).
	matchT []int
	matchR []int
	seenEp []uint64
	augEp  uint64
	cur    []int
	curEp  []uint64

	// dirty lists the templates the next repair must re-validate (isDirty
	// dedups it); everything else is matched to a row that has been probable
	// ever since the last repair.
	dirty   []int
	isDirty []bool

	freeT []int // scratch: templates still free after augmenting
}

func newDeltaAdj(p *Planner) *deltaAdj {
	n := len(p.tmpl.Rows)
	e := &deltaAdj{
		p:       p,
		class:   make([]int, n),
		byEq:    make(map[eqKey][]int),
		rowSlot: make(map[model.RowID]int),
		matchT:  make([]int, n),
		isDirty: make([]bool, n),
	}
	byPreds := make(map[string]int)
	var key strings.Builder
	for t, tr := range p.tmpl.Rows {
		key.Reset()
		for _, pr := range tr {
			fmt.Fprintf(&key, "%d%q", pr.Op, pr.Val)
		}
		c, ok := byPreds[key.String()]
		if !ok {
			c = len(e.classRow)
			byPreds[key.String()] = c
			e.classRow = append(e.classRow, tr)
			e.classLive = append(e.classLive, 0)
		}
		e.class[t] = c
		e.matchT[t] = -1
		if !p.removed[t] {
			e.classLive[c]++
		}
	}
	e.adj = make([][]int, len(e.classRow))
	e.cur = make([]int, len(e.classRow))
	e.curEp = make([]uint64, len(e.classRow))
	for c := range e.classRow {
		if e.classLive[c] > 0 {
			e.indexClass(c)
		}
	}
	e.markAllDirty()
	return e
}

// indexClass files class c under its inverted-index bucket.
func (e *deltaAdj) indexClass(c int) {
	for col, pr := range e.classRow[c] {
		if pr.Op == OpEq {
			k := eqKey{col: col, val: pr.Val}
			e.byEq[k] = append(e.byEq[k], c)
			return
		}
	}
	e.always = append(e.always, c)
}

// removeTemplate takes template row t out of its class; the planner calls
// this when it removes t from T. The class's adjacency list and
// inverted-index entry go with its last member.
func (e *deltaAdj) removeTemplate(t int) {
	c := e.class[t]
	e.classLive[c]--
	if e.classLive[c] > 0 {
		return
	}
	drop := func(lst []int) []int {
		for i, have := range lst {
			if have == c {
				return append(lst[:i], lst[i+1:]...)
			}
		}
		return lst
	}
	filed := false
	for col, pr := range e.classRow[c] {
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
	e.adj[c] = nil
}

// candidateClasses visits every class that could possibly match a row with
// vector v: the always bucket plus, for each set cell, the bucket of classes
// whose first OpEq cell is that (column, value). Each class lives in exactly
// one bucket, so no class is visited twice.
func (e *deltaAdj) candidateClasses(v model.Vector, visit func(c int)) {
	for _, c := range e.always {
		visit(c)
	}
	for col, cell := range v {
		if !cell.Set {
			continue
		}
		for _, c := range e.byEq[eqKey{col: col, val: cell.Val}] {
			visit(c)
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
		e.matchR[s], e.seenEp[s] = -1, 0
	} else {
		s = len(e.slots)
		e.slots = append(e.slots, r)
		e.live = append(e.live, true)
		e.matchR = append(e.matchR, -1)
		e.seenEp = append(e.seenEp, 0)
	}
	e.rowSlot[r.ID] = s
	return s
}

// insertAdj adds slot s into class c's adjacency, keeping it sorted by row
// id.
func (e *deltaAdj) insertAdj(c, s int) {
	lst := e.adj[c]
	id := e.slots[s].ID
	i := sort.Search(len(lst), func(i int) bool { return e.slots[lst[i]].ID >= id })
	lst = append(lst, 0)
	copy(lst[i+1:], lst[i:])
	lst[i] = s
	e.adj[c] = lst
}

// compact drops dead slots and filters them out of every adjacency list.
// Triggered when dead slots outnumber live ones, so its O(|P| + Σ deg) cost
// amortizes to O(1) per delta. A dead slot that is still matched (its
// template is dirty, waiting for the next repair) is unmatched on both sides
// but keeps its Planner.assigned entry: if the row returns before the repair
// it gets a new slot, and the repair's re-validation finds it by id — as the
// spec's seeding would.
func (e *deltaAdj) compact() {
	dead := make([]bool, len(e.slots))
	for s, r := range e.slots {
		if r != nil && !e.live[s] {
			dead[s] = true
			delete(e.rowSlot, r.ID)
			e.slots[s] = nil
			e.freeSlots = append(e.freeSlots, s)
			if t := e.matchR[s]; t != -1 {
				e.matchT[t], e.matchR[s] = -1, -1
			}
		}
	}
	for c, lst := range e.adj {
		out := lst[:0]
		for _, s := range lst {
			if !dead[s] {
				out = append(out, s)
			}
		}
		e.adj[c] = out
	}
	e.deadSlots = 0
}

// --- model.ProbableDeltaListener ---

// ProbableAdded registers a row entering the probable set: a revival flips
// the existing slot live in O(1); a genuinely new row gets a slot and is
// filed once per class it matches, the classes coming from the inverted
// index. No template becomes dirty: a new row can only help a template that
// is unmatched, and those are dirty already.
func (e *deltaAdj) ProbableAdded(r *model.Row) {
	if s, ok := e.rowSlot[r.ID]; ok {
		if !e.live[s] {
			e.live[s] = true
			e.slots[s] = r
			e.deadSlots--
		}
		return
	}
	s := e.allocSlot(r)
	e.candidateClasses(r.Vec,
		func(c int) {
			if e.p.tmpl.MatchCandidate(e.classRow[c], r.Vec) {
				e.insertAdj(c, s)
			}
		})
}

// ProbableRemoved marks the row's slot dead. The adjacency is retained: if
// the removal is a vote flip the row will revive with the same vector, and
// if the row truly left the table the slot is reclaimed at the next compact.
// A matched slot keeps its pair and marks its template dirty instead: the
// spec seeds a repair with every assigned row that is probable at repair
// time, however often it left and re-entered in between, so whether the pair
// survives is the next repair's decision.
func (e *deltaAdj) ProbableRemoved(r *model.Row) {
	s, ok := e.rowSlot[r.ID]
	if !ok || !e.live[s] {
		return
	}
	e.live[s] = false
	if t := e.matchR[s]; t != -1 {
		e.markDirty(t)
	}
	e.deadSlots++
	if e.deadSlots > (len(e.rowSlot)-e.deadSlots)+16 {
		e.compact()
	}
}

// ProbableUpdated is a vote change on a row that stayed probable: adjacency
// and matching depend only on the vector, so there is nothing to maintain.
func (e *deltaAdj) ProbableUpdated(*model.Row) {}

// IndexReset drops every slot, adjacency list and matched pair, and marks
// every template dirty; the index's rebuild re-delivers a ProbableAdded per
// surviving probable row. Planner.assigned is kept, so the next repair's
// re-validation rebuilds the matching from it by row id — exactly the spec's
// seeding step, so a snapshot reload does not perturb the assignment.
func (e *deltaAdj) IndexReset() {
	e.slots = nil
	e.live = nil
	e.rowSlot = make(map[model.RowID]int)
	e.freeSlots = nil
	e.deadSlots = 0
	e.matchR = nil
	e.seenEp = nil
	for c := range e.adj {
		e.adj[c] = nil
	}
	for t := range e.matchT {
		e.matchT[t] = -1
	}
	e.markAllDirty()
}

// --- dirty templates ---

// markDirty queues template t for the next repair's re-validation. A template
// is dirty when the spec's seeding step might not reproduce its pair: its
// matched row left the probable set since the last repair, a repair left it
// unmatched behind a planned insert, or the engine lost its slots.
func (e *deltaAdj) markDirty(t int) {
	if !e.isDirty[t] {
		e.isDirty[t] = true
		e.dirty = append(e.dirty, t)
	}
}

func (e *deltaAdj) markAllDirty() {
	for t := range e.isDirty {
		if !e.p.removed[t] {
			e.markDirty(t)
		}
	}
}

// --- matching operations ---

// match pairs template t with slot s, overwriting whatever either side held
// (an augmenting path re-pairs the previous holder first).
func (e *deltaAdj) match(t, s int) {
	e.matchT[t] = s
	e.matchR[s] = t
	e.p.assigned[t] = e.slots[s].ID
}

// unmatch frees template t and the slot it holds, if any.
func (e *deltaAdj) unmatch(t int) {
	if s := e.matchT[t]; s != -1 {
		e.matchT[t], e.matchR[s] = -1, -1
	}
	e.p.assigned[t] = ""
}

// revalidate applies the spec's seeding rule to dirty template t: the pair
// recorded in Planner.assigned stands iff that row is probable now. (The
// spec also requires the row to be unclaimed and to match; assigned ids are
// distinct and vectors immutable, so here both always hold.) The pair is
// rebuilt when a compaction or an index reset took it apart. Reports whether
// t is matched.
func (e *deltaAdj) revalidate(t int) bool {
	if id := e.p.assigned[t]; id != "" {
		if s, ok := e.rowSlot[id]; ok && e.live[s] {
			if e.matchT[t] != s {
				e.match(t, s)
			}
			return true
		}
		e.unmatch(t)
	}
	return false
}

// augment searches for an augmenting path from free template t over the
// persistent adjacency — the same alternating-path search, in the same
// sorted-by-row-id exploration order, as the from-scratch spec.
func (e *deltaAdj) augment(t int) bool {
	e.augEp++
	return e.kuhn(t)
}

// kuhn explores t's class list from the class's cursor on. The cursor's
// invariant: every entry before it is dead or already seen by this search,
// so starting there visits the same slots in the same order as starting at
// the top, minus skips the spec would have made too. A search enters a class
// with its cursor at 0 and moves it past each entry it reads before recursing,
// so the holder of a same-class slot resumes right after that slot and a
// frame that regains control after a failed recursion resumes wherever the
// recursion left the cursor; either way the skipped entries were seen. A
// search therefore reads each adjacency entry at most once.
func (e *deltaAdj) kuhn(t int) bool {
	c := e.class[t]
	if e.curEp[c] != e.augEp {
		e.curEp[c], e.cur[c] = e.augEp, 0
	}
	lst := e.adj[c]
	for e.cur[c] < len(lst) {
		s := lst[e.cur[c]]
		e.cur[c]++
		e.p.AugmentVisits++
		if !e.live[s] || e.seenEp[s] == e.augEp {
			continue
		}
		e.seenEp[s] = e.augEp
		if h := e.matchR[s]; h != -1 && !e.kuhn(h) {
			continue
		}
		e.match(t, s)
		return true
	}
	return false
}
