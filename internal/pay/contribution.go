// Package pay implements CrowdFill's compensation scheme (paper §5): the
// notion of direct/indirect contribution of worker messages to the final
// table, the uniform / column-weighted / dual-weighted budget allocation
// schemes, the splitting of cell compensation between direct and indirect
// contributors, and the online estimator that shows workers expected pay per
// action during data collection.
package pay

import (
	"sort"

	"crowdfill/internal/model"
	"crowdfill/internal/sync"
)

// msgRef identifies a message in either the worker trace or the CC log.
type msgRef struct {
	cc  bool
	idx int
}

// Cell identifies one final-table cell s.A.
type Cell struct {
	Row model.RowID // final row id
	Col int
}

// CellContribution records, for a cell in C (cells of the final table whose
// values were entered by workers), its direct and optional indirect
// contributing messages (trace indexes).
type CellContribution struct {
	Cell     Cell
	Value    string
	Direct   int // index into the worker trace
	Indirect int // index into the worker trace, or -1
}

// Contributions is the outcome of §5.2.1's analysis over a trace.
type Contributions struct {
	// Cells holds one entry per cell in C, in deterministic order (by final
	// row id, then column).
	Cells []CellContribution
	// Upvotes and Downvotes are trace indexes of contributing vote
	// messages (the sets U and D).
	Upvotes   []int
	Downvotes []int
}

// fillKey indexes fills by (column, value) for the indirect-contribution rule.
type fillKey struct {
	col int
	val string
}

// Analyze computes which trace messages contributed to the final table,
// directly or indirectly (paper §5.2.1). trace holds worker messages in
// timestamp order; ccLog holds the Central Client's messages (template
// seeding), which never earn compensation but determine whether a value "came
// from a template row".
func Analyze(final []*model.Row, trace, ccLog []sync.Message) *Contributions {
	// Lineage: which message created each row id, and the row it replaced.
	created := make(map[model.RowID]msgRef)
	parent := make(map[model.RowID]model.RowID)
	// Earliest fill of each (column, value), across workers and CC.
	firstFill := make(map[fillKey]msgRef)
	ts := func(r msgRef) int64 {
		if r.cc {
			return ccLog[r.idx].TS
		}
		return trace[r.idx].TS
	}
	index := func(msgs []sync.Message, cc bool) {
		for i, m := range msgs {
			if m.Type != sync.MsgReplace {
				continue
			}
			ref := msgRef{cc: cc, idx: i}
			created[m.NewRow] = ref
			parent[m.NewRow] = m.Row
			k := fillKey{col: m.Col, val: m.Val}
			if prev, ok := firstFill[k]; !ok || ts(ref) < ts(prev) {
				firstFill[k] = ref
			}
		}
	}
	index(trace, false)
	index(ccLog, true)

	out := &Contributions{}

	// Direct contributions: walk each final row's replace chain backwards;
	// each link filled exactly one column of the row that became s.
	for _, s := range final {
		cur := s.ID
		for {
			ref, ok := created[cur]
			if !ok {
				break // reached the inserted empty row
			}
			var m sync.Message
			if ref.cc {
				m = ccLog[ref.idx]
			} else {
				m = trace[ref.idx]
			}
			if !ref.cc {
				cc := CellContribution{
					Cell:     Cell{Row: s.ID, Col: m.Col},
					Value:    m.Val,
					Direct:   ref.idx,
					Indirect: -1,
				}
				// Indirect: the earliest fill of (col, val) anywhere. If it
				// was the CC, the value came from a template row — nobody is
				// compensated indirectly. If a worker was first, they
				// contribute indirectly only if their whole row value is
				// subsumed by s.
				if first, ok := firstFill[fillKey{col: m.Col, val: m.Val}]; ok && !first.cc {
					fm := trace[first.idx]
					if fm.Vec.Subset(s.Vec) {
						cc.Indirect = first.idx
					}
				}
				out.Cells = append(out.Cells, cc)
			}
			cur = parent[cur]
		}
	}
	sort.Slice(out.Cells, func(i, j int) bool {
		a, b := out.Cells[i], out.Cells[j]
		if a.Cell.Row != b.Cell.Row {
			return a.Cell.Row < b.Cell.Row
		}
		return a.Cell.Col < b.Cell.Col
	})

	// Vote contributions.
	finalVecs := model.NewVecMap[struct{}]()
	for _, s := range final {
		finalVecs.Set(s.Vec.Hashed(), struct{}{})
	}
	for i, m := range trace {
		switch m.Type {
		case sync.MsgUpvote:
			// Auto-upvotes from row-completing fills earn nothing (§5.2.1).
			if m.Auto {
				break
			}
			if _, inFinal := finalVecs.Get(m.Vec.Hashed()); inFinal {
				out.Upvotes = append(out.Upvotes, i)
			}
		case sync.MsgDownvote:
			// A downvote contributes if consistent with all final rows:
			// no s ∈ S with s ⊇ r.
			consistent := true
			for _, s := range final {
				if s.Vec.Superset(m.Vec) {
					consistent = false
					break
				}
			}
			if consistent {
				out.Downvotes = append(out.Downvotes, i)
			}
		default:
			// Only fills and votes earn contributions (§5.2); other message
			// kinds in the trace are bookkeeping.
		}
	}
	return out
}

// FirstAppearance returns, for each distinct value among the cells of C in
// column col, the earliest fill timestamp of that value in that column
// (across workers and CC). Used by dual-weighted allocation to order key
// values by when they first appeared in the candidate table (§5.2.2).
func FirstAppearance(cells []CellContribution, col int, trace, ccLog []sync.Message) map[string]int64 {
	first := make(map[string]int64)
	scan := func(msgs []sync.Message) {
		for _, m := range msgs {
			if m.Type != sync.MsgReplace || m.Col != col {
				continue
			}
			if t, ok := first[m.Val]; !ok || m.TS < t {
				first[m.Val] = m.TS
			}
		}
	}
	scan(trace)
	scan(ccLog)
	out := make(map[string]int64)
	for _, c := range cells {
		if c.Cell.Col != col {
			continue
		}
		if t, ok := first[c.Value]; ok {
			out[c.Value] = t
		}
	}
	return out
}
