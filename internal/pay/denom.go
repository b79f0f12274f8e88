package pay

import "crowdfill/internal/model"

// denomTracker maintains the estimator's §5.3 denominator tallies
// incrementally from model.TableIndex probable-set deltas, so displaying an
// estimate stops rescanning the probable rows per message:
//
//   - sumU is the upvote surplus Σ max(0, u_p − (umin−1)) over complete
//     probable rows (the growing part of |U|);
//   - nCons is the number of observed downvotes still consistent with every
//     probable row (|D|), maintained via per-vector cover counts: a downvote
//     vector is consistent exactly when zero probable rows are supersets of
//     it, and membership deltas adjust the covers they touch;
//   - byVec supports the O(1) "is this exact value probable?" usefulness
//     check upvote absorption needs, and probable the row-id check fills
//     need.
//
// The tracker is driven inside index flushes; it never calls back into the
// index. Per probable-set delta it does O(distinct downvoted vectors) work,
// which replaces O(probable × downvotes) work per displayed estimate.
type denomTracker struct {
	umin     int
	probable map[model.RowID]*model.Row
	byVec    *model.VecMap[int] // probable rows per exact vector
	surplus  map[model.RowID]int
	sumU     int
	// covers holds one entry per distinct downvoted vector, in order of
	// first sight, and coverOf its index there. Entries are never removed,
	// so every probable-set delta walks a slice.
	covers  []coverEntry
	coverOf *model.VecMap[int]
	nCons   int
}

// coverEntry aggregates every observed downvote of one exact vector: mult is
// how many times it was downvoted, cover how many probable rows are supersets
// of it (0 ⇒ all mult downvotes count toward |D|).
type coverEntry struct {
	vec   model.Vector
	mult  int
	cover int
}

func newDenomTracker(umin int) *denomTracker {
	return &denomTracker{
		umin:     umin,
		probable: make(map[model.RowID]*model.Row),
		byVec:    model.NewVecMap[int](),
		surplus:  make(map[model.RowID]int),
		coverOf:  model.NewVecMap[int](),
	}
}

func (t *denomTracker) isProbable(id model.RowID) bool {
	_, ok := t.probable[id]
	return ok
}

// hasVec reports whether some probable row carries exactly vector v.
func (t *denomTracker) hasVec(v model.Vector) bool {
	_, ok := t.byVec.Get(v.Hashed())
	return ok
}

// addDownvote registers one observed downvote of vector v, computing its
// cover against the current probable rows on first sight (repeat downvotes
// of the same vector are O(1)). Reports whether v is currently consistent.
func (t *denomTracker) addDownvote(v model.Vector) bool {
	k := v.Hashed()
	i, ok := t.coverOf.Get(k)
	if !ok {
		e := coverEntry{vec: v}
		for _, p := range t.probable {
			if p.Vec.Superset(v) {
				e.cover++
			}
		}
		i = len(t.covers)
		t.covers = append(t.covers, e)
		t.coverOf.Set(k, i)
	}
	e := &t.covers[i]
	e.mult++
	if e.cover == 0 {
		t.nCons++
		return true
	}
	return false
}

// setSurplus recomputes one row's contribution to the |U| surplus.
func (t *denomTracker) setSurplus(r *model.Row) {
	s := 0
	if r.Vec.IsComplete() {
		if extra := r.Up - (t.umin - 1); extra > 0 {
			s = extra
		}
	}
	old := t.surplus[r.ID]
	if s == old {
		return
	}
	t.sumU += s - old
	if s == 0 {
		delete(t.surplus, r.ID)
	} else {
		t.surplus[r.ID] = s
	}
}

// --- model.ProbableDeltaListener ---

func (t *denomTracker) ProbableAdded(r *model.Row) {
	if _, ok := t.probable[r.ID]; ok {
		return
	}
	t.probable[r.ID] = r
	k := r.Vec.Hashed()
	n, _ := t.byVec.Get(k)
	t.byVec.Set(k, n+1)
	t.setSurplus(r)
	for i := range t.covers {
		e := &t.covers[i]
		if r.Vec.Superset(e.vec) {
			if e.cover == 0 {
				t.nCons -= e.mult
			}
			e.cover++
		}
	}
}

func (t *denomTracker) ProbableRemoved(r *model.Row) {
	if _, ok := t.probable[r.ID]; !ok {
		return
	}
	delete(t.probable, r.ID)
	k := r.Vec.Hashed()
	if n, ok := t.byVec.Get(k); ok {
		if n--; n <= 0 {
			t.byVec.Delete(k)
		} else {
			t.byVec.Set(k, n)
		}
	}
	if old := t.surplus[r.ID]; old != 0 {
		t.sumU -= old
		delete(t.surplus, r.ID)
	}
	for i := range t.covers {
		e := &t.covers[i]
		if r.Vec.Superset(e.vec) {
			e.cover--
			if e.cover == 0 {
				t.nCons += e.mult
			}
		}
	}
}

func (t *denomTracker) ProbableUpdated(r *model.Row) {
	if _, ok := t.probable[r.ID]; !ok {
		return
	}
	t.setSurplus(r)
}

func (t *denomTracker) IndexReset() {
	t.probable = make(map[model.RowID]*model.Row)
	t.byVec = model.NewVecMap[int]()
	t.surplus = make(map[model.RowID]int)
	t.sumU = 0
	// With no probable rows every observed downvote is consistent; the
	// rebuild's ProbableAdded stream restores the covers.
	t.nCons = 0
	for i := range t.covers {
		t.covers[i].cover = 0
		t.nCons += t.covers[i].mult
	}
}
