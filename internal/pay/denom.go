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
	byVec    map[string]*vecCount // probable rows per exact vector encoding
	surplus  map[model.RowID]int
	sumU     int
	cover    map[string]*coverEntry
	nCons    int
}

// coverEntry aggregates every observed downvote of one exact vector: mult is
// how many times it was downvoted, cover how many probable rows are supersets
// of it (0 ⇒ all mult downvotes count toward |D|).
type coverEntry struct {
	vec   model.Vector
	mult  int
	cover int
}

// vecCount is one byVec entry. It keeps its own map key so the last probable
// row of a value can leave without re-deriving the key string.
type vecCount struct {
	key string
	n   int
}

func newDenomTracker(umin int) *denomTracker {
	return &denomTracker{
		umin:     umin,
		probable: make(map[model.RowID]*model.Row),
		byVec:    make(map[string]*vecCount),
		surplus:  make(map[model.RowID]int),
		cover:    make(map[string]*coverEntry),
	}
}

func (t *denomTracker) isProbable(id model.RowID) bool {
	_, ok := t.probable[id]
	return ok
}

// hasVec reports whether some probable row carries exactly vector v.
//
//lint:hotpath
func (t *denomTracker) hasVec(v model.Vector) bool {
	var buf [model.KeyScratch]byte
	return t.byVec[string(v.AppendKey(buf[:0]))] != nil
}

// addDownvote registers one observed downvote of vector v, computing its
// cover against the current probable rows on first sight (repeat downvotes
// of the same vector are O(1)). Reports whether v is currently consistent.
func (t *denomTracker) addDownvote(v model.Vector) bool {
	var buf [model.KeyScratch]byte
	k := v.AppendKey(buf[:0])
	e, ok := t.cover[string(k)]
	if !ok {
		e = &coverEntry{vec: v}
		for _, p := range t.probable {
			if p.Vec.Superset(v) {
				e.cover++
			}
		}
		t.cover[string(k)] = e
	}
	e.mult++
	if e.cover == 0 {
		t.nCons++
		return true
	}
	return false
}

func (t *denomTracker) newVecCount(key []byte) *vecCount {
	vc := &vecCount{key: string(key)}
	t.byVec[vc.key] = vc
	return vc
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

//lint:hotpath
func (t *denomTracker) ProbableAdded(r *model.Row) {
	if _, ok := t.probable[r.ID]; ok {
		return
	}
	t.probable[r.ID] = r
	var buf [model.KeyScratch]byte
	k := r.Vec.AppendKey(buf[:0])
	vc := t.byVec[string(k)]
	if vc == nil {
		vc = t.newVecCount(k) //lint:allow hotalloc a value's first probable row inserts its entry: one key string and one counter
	}
	vc.n++
	t.setSurplus(r)
	for _, e := range t.cover {
		if r.Vec.Superset(e.vec) {
			if e.cover == 0 {
				t.nCons -= e.mult
			}
			e.cover++
		}
	}
}

//lint:hotpath
func (t *denomTracker) ProbableRemoved(r *model.Row) {
	if _, ok := t.probable[r.ID]; !ok {
		return
	}
	delete(t.probable, r.ID)
	var buf [model.KeyScratch]byte
	if vc := t.byVec[string(r.Vec.AppendKey(buf[:0]))]; vc != nil {
		if vc.n--; vc.n <= 0 {
			delete(t.byVec, vc.key)
		}
	}
	if old := t.surplus[r.ID]; old != 0 {
		t.sumU -= old
		delete(t.surplus, r.ID)
	}
	for _, e := range t.cover {
		if r.Vec.Superset(e.vec) {
			e.cover--
			if e.cover == 0 {
				t.nCons += e.mult
			}
		}
	}
}

//lint:hotpath
func (t *denomTracker) ProbableUpdated(r *model.Row) {
	if _, ok := t.probable[r.ID]; !ok {
		return
	}
	t.setSurplus(r)
}

func (t *denomTracker) IndexReset() {
	t.probable = make(map[model.RowID]*model.Row)
	t.byVec = make(map[string]*vecCount)
	t.surplus = make(map[model.RowID]int)
	t.sumU = 0
	// With no probable rows every observed downvote is consistent; the
	// rebuild's ProbableAdded stream restores the covers.
	t.nCons = 0
	for _, e := range t.cover {
		e.cover = 0
		t.nCons += e.mult
	}
}
