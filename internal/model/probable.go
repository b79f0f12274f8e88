package model

import "sort"

// ProbableRows computes the set of probable rows of a candidate table (paper
// §4.1) from scratch: rows that, given the current state, may still
// contribute to the final table. A row r is probable iff one of:
//
//  1. some primary-key cell is empty and f(u_r,d_r) = 0;
//  2. all key cells are filled, f(u_r,d_r) = 0, and no other row with the
//     same key has a positive score;
//  3. r is complete with a positive score, no same-key row scores higher,
//     and r wins the deterministic tie-break (lowest row id) among equals.
//
// The result is sorted by row id. This is the reference implementation the
// tests hold the incrementally maintained TableIndex to; the constraint
// package's Probable delegates here.
func ProbableRows(c *Candidate, f ScoreFunc) []*Row {
	s := c.Schema()

	// Pass 1: per-key best positive score among complete rows, and whether
	// any row with the key has a positive score at all.
	type keyInfo struct {
		maxScore int  // highest positive score among complete rows
		best     *Row // deterministic winner at maxScore
		positive bool // some row with this key scores > 0
	}
	keys := make(map[string]*keyInfo)
	c.Each(func(r *Row) {
		if !r.Vec.KeyComplete(s) {
			return
		}
		k := r.Vec.KeyOf(s)
		info := keys[k]
		if info == nil {
			info = &keyInfo{}
			keys[k] = info
		}
		score := f(r.Up, r.Down)
		if score > 0 {
			info.positive = true
			if r.Vec.IsComplete() {
				if info.best == nil || score > info.maxScore ||
					(score == info.maxScore && r.ID < info.best.ID) {
					info.maxScore = score
					info.best = r
				}
			}
		}
	})

	var out []*Row
	c.Each(func(r *Row) {
		score := f(r.Up, r.Down)
		if !r.Vec.KeyComplete(s) {
			if score == 0 {
				out = append(out, r)
			}
			return
		}
		info := keys[r.Vec.KeyOf(s)]
		if score == 0 {
			if !info.positive {
				out = append(out, r)
			}
			return
		}
		if score > 0 && r.Vec.IsComplete() && info.best == r {
			out = append(out, r)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
