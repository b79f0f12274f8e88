package constraint

import (
	"crowdfill/internal/model"
)

// Probable computes the set of probable rows of a candidate table (paper
// §4.1): rows that, given the current state, may still contribute to the
// final table. A row r is probable iff one of:
//
//  1. some primary-key cell is empty and f(u_r,d_r) = 0;
//  2. all key cells are filled, f(u_r,d_r) = 0, and no other row with the
//     same key has a positive score;
//  3. r is complete with a positive score, no same-key row scores higher,
//     and r wins the deterministic tie-break (lowest row id) among equals.
//
// The result is sorted by row id. This is the from-scratch computation
// (model.ProbableRows): the server maintains the same set incrementally in a
// model.TableIndex, and the tests check the index against this.
func Probable(c *model.Candidate, f model.ScoreFunc) []*model.Row {
	return model.ProbableRows(c, f)
}

// WouldBeProbableIndexed reports whether a hypothetical new row with value v
// would be probable if inserted into the indexed table right now, given the
// vote histories it would inherit (up = uh if complete, down = subset sum of
// DH). The Central Client uses this before inserting a template row's value
// (paper §4.2: "inserting row q with value t does not always make q
// probable"). The same-key competition comes from the index's per-key
// statistics; a new complete row must outscore every same-key row, since
// ties lose to the incumbent's older id.
func WouldBeProbableIndexed(idx *model.TableIndex, s *model.Schema, f model.ScoreFunc, v model.Vector, inheritedUp, inheritedDown int) bool {
	up := 0
	if v.IsComplete() {
		up = inheritedUp
	}
	score := f(up, inheritedDown)
	if !v.KeyComplete(s) {
		return score == 0
	}
	stat, _ := idx.KeyStat(v.KeyOf(s))
	if score == 0 {
		return !stat.Positive
	}
	if score > 0 && v.IsComplete() {
		return score > stat.MaxAny
	}
	return false
}
