package model

import (
	"fmt"
	"slices"
	"strings"
)

// RowID identifies a row. Fill operations mint a globally-unique new id for
// the row they construct (paper §2.4); ids are "<origin>-<counter>" strings.
type RowID string

// Row is a candidate-table row: an identifier, a value vector, and upvote /
// downvote counts.
type Row struct {
	ID   RowID  `json:"id"`
	Vec  Vector `json:"vec"`
	Up   int    `json:"up"`
	Down int    `json:"down"`
}

// Clone copies the row. The copy shares the vector: vectors are immutable,
// and only the vote counts of a row change.
func (r *Row) Clone() *Row {
	c := *r
	return &c
}

// String renders the row for logs and test failures.
func (r *Row) String() string {
	return fmt.Sprintf("%s%v ↑%d ↓%d", r.ID, r.Vec, r.Up, r.Down)
}

// Candidate is a candidate table R: a set of rows annotated with vote counts.
// It is a plain data structure; the replica logic in internal/sync applies
// the primitive-operation semantics. A value index accelerates the
// equality lookups vote application needs (upvotes touch every row whose
// value equals the voted vector).
type Candidate struct {
	schema *Schema
	rows   map[RowID]*Row
	// byValue indexes rows by value, which stays valid because a vector is
	// never written after it is built (fills replace rows wholesale).
	byValue *VecMap[valueSet]
}

// valueSet is the rows sharing one value, stored by value in the index: one
// row inline and any others in an overflow map. A value is almost always
// carried by one row, so a new value costs nothing of its own; the overflow
// is a map, not a slice, because some values are carried by many rows (every
// empty template row shares one) and a fill must remove its row in O(1).
type valueSet struct {
	first *Row // nil once removed while the overflow still holds rows
	more  map[RowID]*Row
}

// NewCandidate returns an empty candidate table over schema s.
func NewCandidate(s *Schema) *Candidate {
	return &Candidate{
		schema:  s,
		rows:    make(map[RowID]*Row),
		byValue: NewVecMap[valueSet](),
	}
}

// Schema returns the table's schema.
func (c *Candidate) Schema() *Schema { return c.schema }

// Len returns the number of rows.
func (c *Candidate) Len() int { return len(c.rows) }

// Get returns the row with the given id, or nil.
func (c *Candidate) Get(id RowID) *Row { return c.rows[id] }

// Has reports whether a row with the given id exists.
func (c *Candidate) Has(id RowID) bool { _, ok := c.rows[id]; return ok }

// Put inserts or replaces a row object.
func (c *Candidate) Put(r *Row) {
	if old, ok := c.rows[r.ID]; ok {
		c.unindex(old)
	}
	c.rows[r.ID] = r
	k := r.Vec.Hashed()
	set, _ := c.byValue.Get(k)
	switch {
	case set.first == nil:
		set.first = r
	case set.more == nil:
		set.more = map[RowID]*Row{r.ID: r}
	default:
		// The stored set shares this overflow map: adding to it is enough.
		set.more[r.ID] = r
		return
	}
	c.byValue.Set(k, set)
}

// Delete removes the row with the given id, if present.
func (c *Candidate) Delete(id RowID) {
	if old, ok := c.rows[id]; ok {
		c.unindex(old)
		delete(c.rows, id)
	}
}

// unindex removes r from its value's set, deleting a set it empties.
func (c *Candidate) unindex(r *Row) {
	k := r.Vec.Hashed()
	set, ok := c.byValue.Get(k)
	if !ok {
		return
	}
	if set.first == r {
		set.first = nil
	} else {
		// The stored set shares this overflow map: deleting from it is
		// enough, unless that empties the set.
		delete(set.more, r.ID)
		if set.first != nil || len(set.more) > 0 {
			return
		}
	}
	if set.first == nil && len(set.more) == 0 {
		c.byValue.Delete(k)
		return
	}
	c.byValue.Set(k, set)
}

// EachWithValue calls fn for every row whose value equals v, using the value
// index (vote application's equality case, §2.4). The lookup itself is pure
// and allocation-free.
//
//lint:hotpath
func (c *Candidate) EachWithValue(v Vector, fn func(*Row)) {
	set, ok := c.byValue.Get(v.Hashed())
	if !ok {
		return
	}
	if set.first != nil {
		fn(set.first) //lint:allow hotalloc the visitor is the caller's; the lookup is what this root guards
	}
	for _, r := range set.more {
		fn(r) //lint:allow hotalloc the visitor is the caller's; the lookup is what this root guards
	}
}

// Rows returns all rows sorted by id (deterministic iteration order).
func (c *Candidate) Rows() []*Row {
	out := make([]*Row, 0, len(c.rows))
	for _, r := range c.rows {
		out = append(out, r)
	}
	// slices.SortFunc, not sort.Slice: this runs on every table view, and
	// the generic sort skips sort.Slice's reflect-based swapper.
	slices.SortFunc(out, func(a, b *Row) int { return strings.Compare(string(a.ID), string(b.ID)) })
	return out
}

// Each calls fn for every row in unspecified order; fn must not add or
// delete rows.
func (c *Candidate) Each(fn func(*Row)) {
	for _, r := range c.rows {
		fn(r)
	}
}

// Clone copies the table's rows, sharing their vectors, and builds the
// copy's own value index.
func (c *Candidate) Clone() *Candidate {
	out := NewCandidate(c.schema)
	for _, r := range c.rows {
		out.Put(r.Clone())
	}
	return out
}

// Snapshot renders a canonical textual form of the table (rows sorted by id),
// used to compare replicas in convergence tests.
func (c *Candidate) Snapshot() string {
	var b strings.Builder
	for _, r := range c.Rows() {
		fmt.Fprintf(&b, "%s=%s u%d d%d\n", r.ID, r.Vec.Encode(), r.Up, r.Down)
	}
	return b.String()
}
