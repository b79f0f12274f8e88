package crowd

import "crowdfill/internal/model"

// rowIndex answers "which of these rows has this key" and "which of these
// rows is consistent with this partial vector" over a fixed list of complete
// rows — a worker's knowledge, or the whole ground truth — without scanning
// the list. Both answers are the row a front-to-back scan would have
// returned: byKey keeps the first position of a key, and posting lists hold
// positions in ascending order, so the first hit on any list that contains
// every consistent row is the scan's first hit.
type rowIndex struct {
	schema *model.Schema
	rows   []model.Vector
	// byKey maps a row's primary key (Vector.AppendKeyOf) to its position.
	byKey map[string]int
	// byCell[col][val] lists, ascending, the positions of the rows holding
	// val in column col.
	byCell []map[string][]int
}

// newRowIndex indexes rows, which must not change afterwards.
func newRowIndex(s *model.Schema, rows []model.Vector) *rowIndex {
	ix := &rowIndex{
		schema: s,
		rows:   rows,
		byKey:  make(map[string]int, len(rows)),
		byCell: make([]map[string][]int, s.NumColumns()),
	}
	for col := range ix.byCell {
		ix.byCell[col] = make(map[string][]int)
	}
	var buf [model.KeyScratch]byte
	for p, row := range rows {
		key := row.AppendKeyOf(buf[:0], s)
		if _, dup := ix.byKey[string(key)]; !dup {
			ix.byKey[string(key)] = p
		}
		for col, c := range row {
			if c.Set {
				ix.byCell[col][c.Val] = append(ix.byCell[col][c.Val], p)
			}
		}
	}
	return ix
}

// lookup returns the first row whose key cells equal v's, or nil — also when
// v's key is incomplete: a partial key names no row.
func (ix *rowIndex) lookup(v model.Vector) model.Vector {
	if !v.KeyComplete(ix.schema) {
		return nil
	}
	var buf [model.KeyScratch]byte
	if p, ok := ix.byKey[string(v.AppendKeyOf(buf[:0], ix.schema))]; ok {
		return ix.rows[p]
	}
	return nil
}

// candidates returns the shortest posting list among v's set cells. Every
// row v is a subset of is on it, in rows order; rows on it still need the
// Subset test for v's other cells. Empty when some set value occurs in no
// row, and when v has no set cell (callers decide what an empty vector means).
func (ix *rowIndex) candidates(v model.Vector) []int {
	var best []int
	found := false
	for col, c := range v {
		if !c.Set {
			continue
		}
		if list := ix.byCell[col][c.Val]; !found || len(list) < len(best) {
			best, found = list, true
			if len(best) <= 1 {
				break // one row to test, or none: no other list can save work
			}
		}
	}
	return best
}

// supports reports whether some row is consistent with every set cell of v.
func (ix *rowIndex) supports(v model.Vector) bool {
	if v.IsEmpty() {
		return len(ix.rows) > 0
	}
	for _, p := range ix.candidates(v) {
		if v.Subset(ix.rows[p]) {
			return true
		}
	}
	return false
}
