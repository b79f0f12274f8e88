package model

import "sort"

// KeyStat summarizes the rows sharing one complete primary key, as the
// probable-rows rules need them (paper §4.1).
type KeyStat struct {
	// Positive reports whether any row with this key has a positive score.
	Positive bool
	// MaxAny is the highest positive score among rows with this key
	// (complete or not); 0 when Positive is false.
	MaxAny int
	// Best is the final-table winner: the complete positive row with the
	// highest score, ties broken by lowest row id. Nil if none qualifies.
	Best *Row
	// BestScore is Best's score (0 when Best is nil).
	BestScore int
}

// TableIndex incrementally maintains the probable-row set and the final-table
// winners of a candidate table, so the server's per-message hot path
// (PRI repair, completion detection, compensation estimation) does not rescan
// the whole table on every message. It is driven by change notifications
// (RowAdded / RowRemoved / RowVotesChanged / TableReset — the sync.Replica
// observer surface): each notification marks the touched primary key dirty,
// and queries lazily recompute only the dirty key groups. Since a row's
// probable status depends only on rows sharing its key (or on the row alone
// when its key is incomplete), this keeps per-message work proportional to
// the touched key groups, not the table.
//
// The index assumes the operation model's discipline: row vectors are never
// mutated in place (fills replace rows wholesale), so a row's key never
// changes between RowAdded and RowRemoved.
//
// TableIndex is not safe for concurrent use; callers serialize access the
// same way they serialize replica mutation.
type TableIndex struct {
	f ScoreFunc
	s *Schema

	byKey map[string]keyGroup // key-complete rows grouped by key
	free  map[RowID]*Row      // rows with an incomplete primary key

	stats    map[string]KeyStat
	probable map[RowID]*Row
	final    map[string]*Row // key -> final-table winner

	// Dirty tracking is a dedup map plus an insertion-ordered queue; flush
	// walks the queue, never the map, so its cost is O(dirty entries) even
	// after a burst has grown the map's capacity (Go map iteration costs
	// O(capacity), which would otherwise leak the burst size into every
	// later flush).
	dirtyKeys  map[string]struct{}
	dirtyKeyQ  []string
	dirtyFree  map[RowID]struct{}
	dirtyFreeQ []RowID
	pending    bool // a structural change happened since the last flush

	version     uint64
	finalVer    uint64 // bumped exactly where a key's final-table winner changes
	sortedProb  []*Row
	sortedFinal []*Row

	listeners []ProbableDeltaListener
}

// keyGroup is the key-complete rows sharing one primary key. It keeps its
// key string, so a vote or a removal that finds the group through a
// stack-built key queues the group's string instead of building a new one.
type keyGroup struct {
	key  string
	rows map[RowID]*Row
}

// ProbableDeltaListener observes probable-set changes as the index maintains
// itself, so derived aggregates (e.g. the compensation estimator's
// denominator tallies) can be updated from deltas instead of rescanning the
// probable rows per query. Callbacks fire while the index flushes (or, for
// ProbableRemoved, while a row leaves the table); implementations must not
// call back into the index's query methods from inside a callback.
type ProbableDeltaListener interface {
	// ProbableAdded fires when a row enters the probable set.
	ProbableAdded(*Row)
	// ProbableRemoved fires when a row leaves the probable set.
	ProbableRemoved(*Row)
	// ProbableUpdated fires when a row stays probable through a recompute of
	// its key group; its vote counts may have changed (its vector cannot —
	// fills replace rows wholesale). May fire spuriously.
	ProbableUpdated(*Row)
	// IndexReset fires when the index rebuilds from scratch (table reset).
	// The listener must drop all derived state; the rebuild re-delivers a
	// ProbableAdded per surviving probable row.
	IndexReset()
}

// AddDeltaListener appends a probable-set delta listener to the index's
// delivery registry. Several independent aggregates follow the same delta
// stream (the estimator's denominator tallies, the planner's persistent
// template adjacency), so the registry is a multicast with documented
// semantics:
//
//   - Each delta is delivered to every registered listener, in registration
//     order, before the next delta is produced — listeners therefore observe
//     identical, identically-ordered streams.
//   - Pending index changes are flushed before registration, so a new
//     listener observes only deltas applied after attachment; callers seed
//     initial state from Probable().
//   - Listeners must not register listeners, and must not call back into
//     the index's query methods, from inside a callback.
func (x *TableIndex) AddDeltaListener(l ProbableDeltaListener) {
	x.flush()
	x.listeners = append(x.listeners, l)
}

// --- multicast dispatch helpers ---

func (x *TableIndex) notifyAdded(r *Row) {
	for _, l := range x.listeners {
		l.ProbableAdded(r)
	}
}

func (x *TableIndex) notifyRemoved(r *Row) {
	for _, l := range x.listeners {
		l.ProbableRemoved(r)
	}
}

func (x *TableIndex) notifyUpdated(r *Row) {
	for _, l := range x.listeners {
		l.ProbableUpdated(r)
	}
}

func (x *TableIndex) notifyReset() {
	for _, l := range x.listeners {
		l.IndexReset()
	}
}

// NewTableIndex builds an index over the table's current contents and keeps
// it maintained through the observer callbacks. Attach it to the replica that
// owns the table (e.g. rep.SetObserver(idx)) so mutations reach it.
func NewTableIndex(c *Candidate, f ScoreFunc) *TableIndex {
	x := &TableIndex{f: f}
	x.TableReset(c)
	return x
}

// Version returns a counter that increases whenever the probable set or the
// final-table winners change. Cheap change detection for broadcast coalescing.
func (x *TableIndex) Version() uint64 {
	x.flush()
	return x.version
}

// FinalVersion returns a counter that moves exactly when the set of
// final-table winners changes (a key gains, loses or swaps its winning row).
// Vote changes that leave every winner in place, and probable-set churn among
// non-winners, do not move it — which is what lets completion detection skip
// messages that cannot change its answer.
func (x *TableIndex) FinalVersion() uint64 {
	x.flush()
	return x.finalVer
}

// FinalRows returns the number of final-table rows without materialising
// FinalTable.
func (x *TableIndex) FinalRows() int {
	x.flush()
	return len(x.final)
}

// Probable returns the current probable rows sorted by id. The returned slice
// is a shared cache: callers must not modify it and must not hold it across
// further table mutations.
func (x *TableIndex) Probable() []*Row {
	x.flush()
	if x.sortedProb == nil {
		x.sortedProb = make([]*Row, 0, len(x.probable))
		for _, r := range x.probable {
			x.sortedProb = append(x.sortedProb, r)
		}
		sort.Slice(x.sortedProb, func(i, j int) bool { return x.sortedProb[i].ID < x.sortedProb[j].ID })
	}
	return x.sortedProb
}

// FinalTable returns the current final table sorted by row id. Same sharing
// caveats as Probable.
func (x *TableIndex) FinalTable() []*Row {
	x.flush()
	if x.sortedFinal == nil {
		x.sortedFinal = make([]*Row, 0, len(x.final))
		for _, r := range x.final {
			x.sortedFinal = append(x.sortedFinal, r)
		}
		sort.Slice(x.sortedFinal, func(i, j int) bool { return x.sortedFinal[i].ID < x.sortedFinal[j].ID })
	}
	return x.sortedFinal
}

// KeyStat returns the maintained statistics for one primary-key value (as
// produced by Vector.KeyOf). The second result is false when no key-complete
// row with that key exists.
func (x *TableIndex) KeyStat(key string) (KeyStat, bool) {
	x.flush()
	st, ok := x.stats[key]
	return st, ok
}

// markKeyDirty queues key k for recomputation at the next flush.
func (x *TableIndex) markKeyDirty(k string) {
	if _, ok := x.dirtyKeys[k]; !ok {
		x.dirtyKeys[k] = struct{}{}
		x.dirtyKeyQ = append(x.dirtyKeyQ, k)
	}
}

// markFreeDirty queues key-incomplete row id for recomputation.
func (x *TableIndex) markFreeDirty(id RowID) {
	if _, ok := x.dirtyFree[id]; !ok {
		x.dirtyFree[id] = struct{}{}
		x.dirtyFreeQ = append(x.dirtyFreeQ, id)
	}
}

// --- observer surface (sync.Replica drives these) ---

// groupOf finds a key-complete row's key group through a stack-built key,
// for the events that reach a row already in the index.
func (x *TableIndex) groupOf(r *Row) (keyGroup, bool) {
	var buf [KeyScratch]byte
	g, ok := x.byKey[string(r.Vec.AppendKeyOf(buf[:0], x.s))]
	return g, ok
}

// RowAdded registers a row newly inserted into the table.
func (x *TableIndex) RowAdded(r *Row) {
	if r.Vec.KeyComplete(x.s) {
		var buf [KeyScratch]byte
		k := r.Vec.AppendKeyOf(buf[:0], x.s)
		g, ok := x.byKey[string(k)]
		if !ok {
			g = keyGroup{key: string(k), rows: make(map[RowID]*Row)}
			x.byKey[g.key] = g
		}
		g.rows[r.ID] = r
		x.markKeyDirty(g.key)
	} else {
		x.free[r.ID] = r
		x.markFreeDirty(r.ID)
	}
}

// RowRemoved registers a row deleted from the table.
func (x *TableIndex) RowRemoved(r *Row) {
	if _, ok := x.probable[r.ID]; ok {
		delete(x.probable, r.ID)
		x.pending = true
		x.sortedProb = nil
		x.notifyRemoved(r)
	}
	if r.Vec.KeyComplete(x.s) {
		if g, ok := x.groupOf(r); ok {
			delete(g.rows, r.ID)
			if len(g.rows) == 0 {
				delete(x.byKey, g.key)
			}
			x.markKeyDirty(g.key)
		}
	} else {
		delete(x.free, r.ID)
		// The queue may keep a stale entry; flush skips ids absent from the
		// dedup map.
		delete(x.dirtyFree, r.ID)
	}
}

// RowVotesChanged registers a change to a row's vote counts.
func (x *TableIndex) RowVotesChanged(r *Row) {
	if r.Vec.KeyComplete(x.s) {
		if g, ok := x.groupOf(r); ok {
			x.markKeyDirty(g.key)
		}
	} else {
		x.markFreeDirty(r.ID)
	}
}

// TableReset rebuilds the index from scratch over a (possibly new) table,
// e.g. after a snapshot load replaces the replica state wholesale.
func (x *TableIndex) TableReset(c *Candidate) {
	x.s = c.Schema()
	x.notifyReset()
	x.byKey = make(map[string]keyGroup)
	x.free = make(map[RowID]*Row)
	x.stats = make(map[string]KeyStat)
	x.probable = make(map[RowID]*Row)
	if x.final == nil {
		x.final = make(map[string]*Row)
	}
	x.dirtyKeys = make(map[string]struct{})
	x.dirtyKeyQ = x.dirtyKeyQ[:0]
	x.dirtyFree = make(map[RowID]struct{})
	x.dirtyFreeQ = x.dirtyFreeQ[:0]
	x.sortedProb, x.sortedFinal = nil, nil
	x.version++
	c.Each(func(r *Row) { x.RowAdded(r) })
	// The previous winners stay in x.final so the rebuild's flushKey calls
	// reconcile them against the new table one key at a time — the
	// final-winner counter then moves only if the reset really changed a
	// winner. Keys the new table no longer has are queued too (after the
	// table's own keys, and they notify nobody, so delivery order to the
	// delta listeners is unaffected by this map walk).
	for k := range x.final {
		x.markKeyDirty(k)
	}
	x.flush()
}

// --- incremental recomputation ---

// flush recomputes every dirty key group and dirty free row, bumping the
// version when membership or winners changed.
func (x *TableIndex) flush() {
	if len(x.dirtyKeys) == 0 && len(x.dirtyFree) == 0 && !x.pending {
		return
	}
	changed := x.pending
	x.pending = false

	for _, id := range x.dirtyFreeQ {
		if _, dirty := x.dirtyFree[id]; !dirty {
			continue // removed from the dirty set since it was queued
		}
		delete(x.dirtyFree, id)
		r, ok := x.free[id]
		want := ok && x.f(r.Up, r.Down) == 0
		if prev, in := x.probable[id]; in != want {
			if want {
				x.probable[id] = r
				x.notifyAdded(r)
			} else {
				delete(x.probable, id)
				x.notifyRemoved(prev)
			}
			changed = true
		}
	}
	x.dirtyFreeQ = x.dirtyFreeQ[:0]

	for _, k := range x.dirtyKeyQ {
		if _, dirty := x.dirtyKeys[k]; !dirty {
			continue
		}
		delete(x.dirtyKeys, k)
		if x.flushKey(k) {
			changed = true
		}
	}
	x.dirtyKeyQ = x.dirtyKeyQ[:0]

	if changed {
		x.version++
		x.sortedProb, x.sortedFinal = nil, nil
	}
}

// flushKey recomputes one key group's stats, probable membership, and final
// winner; reports whether anything changed.
func (x *TableIndex) flushKey(k string) bool {
	group := x.byKey[k].rows
	changed := false

	if len(group) == 0 {
		if _, had := x.stats[k]; had {
			delete(x.stats, k)
		}
		if _, had := x.final[k]; had {
			delete(x.final, k)
			x.finalVer++
			changed = true
		}
		return changed
	}

	var st KeyStat
	for _, r := range group {
		score := x.f(r.Up, r.Down)
		if score <= 0 {
			continue
		}
		st.Positive = true
		if score > st.MaxAny {
			st.MaxAny = score
		}
		if r.Vec.IsComplete() {
			if st.Best == nil || score > st.BestScore ||
				(score == st.BestScore && r.ID < st.Best.ID) {
				st.Best, st.BestScore = r, score
			}
		}
	}
	x.stats[k] = st

	if old := x.final[k]; old != st.Best {
		if st.Best == nil {
			delete(x.final, k)
		} else {
			x.final[k] = st.Best
		}
		x.finalVer++
		changed = true
	}

	for _, r := range group {
		score := x.f(r.Up, r.Down)
		var want bool
		switch {
		case score == 0:
			want = !st.Positive
		case score > 0:
			want = r.Vec.IsComplete() && st.Best == r
		}
		_, in := x.probable[r.ID]
		switch {
		case in != want && want:
			x.probable[r.ID] = r
			x.notifyAdded(r)
			changed = true
		case in != want:
			delete(x.probable, r.ID)
			x.notifyRemoved(r)
			changed = true
		case in:
			// Still probable, but the group was dirty: its votes may have
			// moved, which denominator aggregates care about.
			x.notifyUpdated(r)
		}
	}
	return changed
}
