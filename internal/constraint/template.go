package constraint

import (
	"errors"
	"fmt"

	"crowdfill/internal/model"
)

// TemplateRow is one constraint-template row: one predicate per schema
// column. An all-Any row is an "empty" template row (a cardinality slot).
type TemplateRow []Pred

// EqVector returns the vector of the row's OpEq cells — the value the
// Central Client seeds when inserting a row for this template row.
func (tr TemplateRow) EqVector() model.Vector {
	v := model.NewVector(len(tr))
	for i, p := range tr {
		if p.Op == OpEq {
			v[i] = model.Cell{Set: true, Val: p.Val}
		}
	}
	return v
}

// Template is a set of template rows over a schema — the unified form of the
// paper's cardinality, values, and predicates constraints (§2.3): the final
// table must contain, for each template row t, a unique row s with s ⊇* t.
type Template struct {
	Schema *model.Schema
	Rows   []TemplateRow
}

// Cardinality returns a template of n empty rows — the paper's cardinality
// constraint, absorbed into the values constraint as n empty template rows.
func Cardinality(s *model.Schema, n int) Template {
	t := Template{Schema: s}
	for i := 0; i < n; i++ {
		t.Rows = append(t.Rows, make(TemplateRow, s.NumColumns()))
	}
	return t
}

// PredTemplate builds a predicates constraint from explicit rows. Operands
// are rewritten to the column type's canonical form ("07" → "7" on an int
// column): clients only ever fill canonical values (Schema.CheckValue) and
// Pred.Holds compares `=`/`!=` operands as strings, so a non-canonical
// operand could never be matched. The caller's rows are not modified.
func PredTemplate(s *model.Schema, rows ...TemplateRow) (Template, error) {
	t := Template{Schema: s, Rows: make([]TemplateRow, len(rows))}
	if s == nil {
		return Template{}, t.Validate() // reports the missing schema
	}
	for ri, tr := range rows {
		out := append(TemplateRow(nil), tr...)
		// Malformed rows (wrong width, an operand that does not parse) are
		// left as they are for Validate to report.
		for ci := 0; ci < len(out) && ci < s.NumColumns(); ci++ {
			if out[ci].Op == OpAny {
				continue
			}
			if canon, err := model.CanonicalValue(s.Columns[ci].Type, out[ci].Val); err == nil {
				out[ci].Val = canon
			}
		}
		t.Rows[ri] = out
	}
	if err := t.Validate(); err != nil {
		return Template{}, err
	}
	return t, nil
}

// WithCardinality pads the template with empty rows until it has at least n
// rows, absorbing a cardinality constraint into the values constraint.
func (t Template) WithCardinality(n int) Template {
	out := Template{Schema: t.Schema, Rows: append([]TemplateRow(nil), t.Rows...)}
	for len(out.Rows) < n {
		out.Rows = append(out.Rows, make(TemplateRow, t.Schema.NumColumns()))
	}
	return out
}

// Validate checks the template is well-formed: row widths match the schema,
// every operand is a value of its column's type in canonical form (what
// ValuesTemplate and PredTemplate produce), OpEq operands are additionally
// inside the column's domain, and no two rows pin the same complete primary
// key (the paper assumes a satisfying final table exists). Comparison
// predicates are allowed on every type: CompareTyped orders them all.
func (t Template) Validate() error {
	if t.Schema == nil {
		return errors.New("constraint: template has no schema")
	}
	seenKeys := make(map[string]bool)
	for ri, tr := range t.Rows {
		if len(tr) != t.Schema.NumColumns() {
			return fmt.Errorf("constraint: template row %d has %d cells, schema has %d columns", ri, len(tr), t.Schema.NumColumns())
		}
		for ci, p := range tr {
			if p.Op == OpAny {
				continue
			}
			col := t.Schema.Columns[ci]
			canon, err := model.CanonicalValue(col.Type, p.Val)
			if err != nil {
				return fmt.Errorf("constraint: template row %d column %q: %w", ri, col.Name, err)
			}
			if canon != p.Val {
				return fmt.Errorf("constraint: template row %d column %q: operand %q is not canonical (want %q)", ri, col.Name, p.Val, canon)
			}
			if p.Op == OpEq {
				if _, err := t.Schema.CheckValue(ci, p.Val); err != nil {
					return fmt.Errorf("constraint: template row %d: %w", ri, err)
				}
			}
		}
		// Detect duplicate fully-pinned primary keys.
		eq := tr.EqVector()
		if eq.KeyComplete(t.Schema) {
			k := eq.KeyOf(t.Schema)
			if seenKeys[k] {
				return fmt.Errorf("constraint: template rows share the complete primary key of row %d", ri)
			}
			seenKeys[k] = true
		}
	}
	return nil
}

// MatchCandidate reports whether candidate-row value v can correspond to
// template row tr for PRI purposes: OpEq cells must be present and equal
// (the paper's r ⊇ t subsumption); inequality predicates are satisfied
// optimistically while the cell is still empty (the row can evolve to
// satisfy them) and strictly once filled. See DESIGN.md §5.
func (t Template) MatchCandidate(tr TemplateRow, v model.Vector) bool {
	for i, p := range tr {
		switch p.Op {
		case OpAny:
		case OpEq:
			if !v[i].Set || v[i].Val != p.Val {
				return false
			}
		default:
			if v[i].Set && !p.Holds(t.Schema.Columns[i].Type, v[i].Val) {
				return false
			}
		}
	}
	return true
}

// MatchFinal reports s ⊇* tr for a final-table row: every constrained cell
// must be present and satisfy its predicate.
func (t Template) MatchFinal(tr TemplateRow, v model.Vector) bool {
	for i, p := range tr {
		if p.Op == OpAny {
			continue
		}
		if !v[i].Set || !p.Holds(t.Schema.Columns[i].Type, v[i].Val) {
			return false
		}
	}
	return true
}

// SatisfiedBy reports whether the final table satisfies the constraint:
// there is an injective mapping from template rows to final rows with
// s ⊇* t — i.e. a maximum bipartite matching of size |T|. An injective map
// needs at least |T| targets, so a shorter final table is rejected without
// building the matching (exact, and it is the common case for almost the
// whole of a collection).
func (t Template) SatisfiedBy(final []*model.Row) bool {
	if len(final) < len(t.Rows) {
		return false
	}
	adj := make([][]int, len(t.Rows))
	for ti, tr := range t.Rows {
		for si, s := range final {
			if t.MatchFinal(tr, s.Vec) {
				adj[ti] = append(adj[ti], si)
			}
		}
	}
	m := MaxMatching(adj, len(final))
	return m.Size == len(t.Rows)
}

// EmptyCellsInColumn returns the number of unpinned cells in column ci.
func (t Template) EmptyCellsInColumn(ci int) int {
	n := 0
	for _, tr := range t.Rows {
		if tr[ci].Op != OpEq {
			n++
		}
	}
	return n
}

// Clone deep-copies the template.
func (t Template) Clone() Template {
	out := Template{Schema: t.Schema, Rows: make([]TemplateRow, len(t.Rows))}
	for i, tr := range t.Rows {
		out.Rows[i] = append(TemplateRow(nil), tr...)
	}
	return out
}
