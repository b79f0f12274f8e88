package model

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Cell is one table cell: either empty (Set=false) or holding a canonical
// value.
type Cell struct {
	Set bool   `json:"set"`
	Val string `json:"val,omitempty"`
}

// Vector is the value of a row: one cell per schema column. In the paper's
// notation a Vector is the "value" r̄ of a row r, or a value-vector v over a
// subset of columns (unset cells mark the columns outside the subset).
//
// A Vector is an immutable value: only the code that builds one writes its
// cells (NewVector's caller, VectorOf, With, Project, a decoder), and from
// then on rows, vote histories, snapshots and messages share it instead of
// copying it. The publishedmut analyzer reports a write into the cells of a
// vector reached through a Row's or a message's Vec field.
type Vector []Cell

// NewVector returns an all-empty vector of width n.
func NewVector(n int) Vector { return make(Vector, n) }

// VectorOf builds a vector from raw cell values where "" means empty.
// Values are stored as given (callers validate/canonicalize via Schema).
func VectorOf(vals ...string) Vector {
	v := make(Vector, len(vals))
	for i, s := range vals {
		if s != "" {
			v[i] = Cell{Set: true, Val: s}
		}
	}
	return v
}

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// With returns a copy of v with column col filled in with val.
func (v Vector) With(col int, val string) Vector {
	w := v.Clone()
	w[col] = Cell{Set: true, Val: val}
	return w
}

// IsEmpty reports whether no cell is set (an "empty row").
func (v Vector) IsEmpty() bool { return v.CountSet() == 0 }

// IsPartial reports whether at least one cell is set (a "partial row"; note a
// complete row is also partial by the paper's definition).
func (v Vector) IsPartial() bool { return v.CountSet() > 0 }

// IsComplete reports whether every cell is set (a "complete row").
func (v Vector) IsComplete() bool { return v.CountSet() == len(v) }

// CountSet returns the number of set cells.
func (v Vector) CountSet() int {
	n := 0
	for _, c := range v {
		if c.Set {
			n++
		}
	}
	return n
}

// Equal reports whether v and w have identical cells.
func (v Vector) Equal(w Vector) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i].Set != w[i].Set {
			return false
		}
		if v[i].Set && v[i].Val != w[i].Val {
			return false
		}
	}
	return true
}

// Subset reports v ⊆ w: every set cell of v is set in w with an equal value.
func (v Vector) Subset(w Vector) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i].Set && (!w[i].Set || v[i].Val != w[i].Val) {
			return false
		}
	}
	return true
}

// Superset reports v ⊇ w.
func (v Vector) Superset(w Vector) bool { return w.Subset(v) }

// Project returns the sub-vector of v restricted to the given column indexes:
// cells outside cols are cleared.
func (v Vector) Project(cols []int) Vector {
	w := NewVector(len(v))
	for _, c := range cols {
		w[c] = v[c]
	}
	return w
}

// KeyComplete reports whether all primary-key cells (per the schema) are set.
func (v Vector) KeyComplete(s *Schema) bool {
	for _, k := range s.KeyColumns() {
		if !v[k].Set {
			return false
		}
	}
	return true
}

// KeyOf returns an opaque comparable key string for the primary-key cells of
// v. Only meaningful when KeyComplete is true.
func (v Vector) KeyOf(s *Schema) string {
	var buf [KeyScratch]byte
	return string(v.AppendKeyOf(buf[:0], s))
}

// Encode returns an opaque comparable key string uniquely identifying the
// whole vector: the key of a vote-history entry in a snapshot and in
// canonical text. In-memory maps key vectors by hash instead (VecMap).
func (v Vector) Encode() string {
	var buf [KeyScratch]byte
	return string(v.AppendKey(buf[:0]))
}

// KeyScratch sizes the stack buffer keyed lookups build a key in: it holds
// the key of every vector the paper's tables produce, and a longer key only
// costs the append growing onto the heap.
const KeyScratch = 128

// AppendKey appends Encode's key bytes to dst and returns the extended
// slice, so a key can be built in a stack buffer and compared, or used to
// index a map with m[string(b)], without materializing the string.
//
//lint:hotpath
func (v Vector) AppendKey(dst []byte) []byte {
	for _, c := range v {
		dst = appendCell(dst, c)
	}
	return dst
}

// AppendKeyOf is AppendKey for KeyOf's primary-key cells.
func (v Vector) AppendKeyOf(dst []byte, s *Schema) []byte {
	if len(s.Key) == 0 {
		// No declared key: every column is a key column (Schema.KeyColumns).
		return v.AppendKey(dst)
	}
	for _, k := range s.Key {
		dst = appendCell(dst, v[k])
	}
	return dst
}

func appendCell(dst []byte, c Cell) []byte {
	if !c.Set {
		return append(dst, '_', '|')
	}
	dst = strconv.AppendInt(dst, int64(len(c.Val)), 10)
	dst = append(dst, ':')
	dst = append(dst, c.Val...)
	return append(dst, '|')
}

// String renders v for logs and test failures, e.g. "(Messi, Argentina, ·, 83)".
func (v Vector) String() string {
	parts := make([]string, len(v))
	for i, c := range v {
		if c.Set {
			parts[i] = c.Val
		} else {
			parts[i] = "·"
		}
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// MarshalJSON encodes the vector as a compact array where null means empty.
func (v Vector) MarshalJSON() ([]byte, error) {
	arr := make([]*string, len(v))
	for i, c := range v {
		if c.Set {
			val := c.Val
			arr[i] = &val
		}
	}
	return json.Marshal(arr)
}

// UnmarshalJSON decodes the array-with-nulls form produced by MarshalJSON.
func (v *Vector) UnmarshalJSON(data []byte) error {
	var arr []*string
	if err := json.Unmarshal(data, &arr); err != nil {
		return fmt.Errorf("model: vector: %w", err)
	}
	w := make(Vector, len(arr))
	for i, p := range arr {
		if p != nil {
			w[i] = Cell{Set: true, Val: *p}
		}
	}
	*v = w
	return nil
}
