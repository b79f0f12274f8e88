package constraint

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"crowdfill/internal/model"
)

func soccerSchema(t testing.TB) *model.Schema {
	t.Helper()
	return model.MustSchema("SoccerPlayer", []model.Column{
		{Name: "name", Type: model.TypeString},
		{Name: "nationality", Type: model.TypeString},
		{Name: "position", Type: model.TypeString, Domain: []string{"GK", "DF", "MF", "FW"}},
		{Name: "caps", Type: model.TypeInt},
		{Name: "goals", Type: model.TypeInt},
	}, "name", "nationality")
}

// paperValuesTemplate is §2.3's example: a forward from any country, any
// player from Brazil, and any player from Spain.
func paperValuesTemplate(t testing.TB) Template {
	t.Helper()
	tmpl, err := ValuesTemplate(soccerSchema(t),
		model.VectorOf("", "", "FW", "", ""),
		model.VectorOf("", "Brazil", "", "", ""),
		model.VectorOf("", "Spain", "", "", ""),
	)
	if err != nil {
		t.Fatalf("ValuesTemplate: %v", err)
	}
	return tmpl
}

// paperFinalTable is §2.2's final table.
func paperFinalTable() []*model.Row {
	return []*model.Row{
		{ID: "r-01", Vec: model.VectorOf("Lionel Messi", "Argentina", "FW", "83", "37")},
		{ID: "r-02", Vec: model.VectorOf("Ronaldinho", "Brazil", "MF", "97", "33")},
		{ID: "r-04", Vec: model.VectorOf("Iker Casillas", "Spain", "GK", "150", "0")},
	}
}

func TestValuesConstraintPaperExample(t *testing.T) {
	tmpl := paperValuesTemplate(t)
	if !tmpl.SatisfiedBy(paperFinalTable()) {
		t.Fatalf("paper's final table should satisfy the §2.3 values template")
	}
	// Without the Spanish player the constraint fails.
	if tmpl.SatisfiedBy(paperFinalTable()[:2]) {
		t.Fatalf("missing Spain row should violate the constraint")
	}
}

// TestPredicatesConstraintPaperExample is §2.3's predicates template: the
// forward and the Brazilian need ≥30 goals, the Spaniard ≥100 caps.
func TestPredicatesConstraintPaperExample(t *testing.T) {
	s := soccerSchema(t)
	tmpl, err := PredTemplate(s,
		TemplateRow{Any, Any, Eq("FW"), Any, Ge("30")},
		TemplateRow{Any, Eq("Brazil"), Any, Any, Ge("30")},
		TemplateRow{Any, Eq("Spain"), Any, Ge("100"), Any},
	)
	if err != nil {
		t.Fatalf("PredTemplate: %v", err)
	}
	if !tmpl.SatisfiedBy(paperFinalTable()) {
		t.Fatalf("paper's final table should satisfy the §2.3 predicates template")
	}
	// Tighten the caps requirement beyond Casillas' 150: now unsatisfiable.
	tight, err := PredTemplate(s,
		TemplateRow{Any, Eq("Spain"), Any, Ge("200"), Any},
	)
	if err != nil {
		t.Fatal(err)
	}
	if tight.SatisfiedBy(paperFinalTable()) {
		t.Fatalf("caps ≥ 200 should not be satisfied")
	}
}

// TestValuesConstraintUniqueness: one row cannot satisfy two template rows —
// the mapping must be injective ("a unique row s ∈ S").
func TestValuesConstraintUniqueness(t *testing.T) {
	s := soccerSchema(t)
	tmpl, err := ValuesTemplate(s,
		model.VectorOf("", "Brazil", "", "", ""),
		model.VectorOf("", "Brazil", "", "", ""),
	)
	if err != nil {
		t.Fatal(err)
	}
	oneBrazilian := []*model.Row{
		{ID: "r-02", Vec: model.VectorOf("Ronaldinho", "Brazil", "MF", "97", "33")},
	}
	if tmpl.SatisfiedBy(oneBrazilian) {
		t.Fatalf("two Brazil template rows need two distinct Brazilian rows")
	}
	twoBrazilians := append(oneBrazilian,
		&model.Row{ID: "r-99", Vec: model.VectorOf("Neymar", "Brazil", "FW", "83", "60")})
	if !tmpl.SatisfiedBy(twoBrazilians) {
		t.Fatalf("two distinct Brazilian rows should satisfy")
	}
}

func TestCardinalityTemplate(t *testing.T) {
	s := soccerSchema(t)
	tmpl := Cardinality(s, 3)
	if len(tmpl.Rows) != 3 {
		t.Fatalf("Cardinality rows = %d", len(tmpl.Rows))
	}
	for _, tr := range tmpl.Rows {
		if !tr.IsEmpty() || !tr.IsValuesRow() {
			t.Fatalf("cardinality rows must be empty: %v", tr)
		}
	}
	if tmpl.SatisfiedBy(paperFinalTable()[:2]) {
		t.Fatalf("2 rows cannot satisfy cardinality 3")
	}
	if !tmpl.SatisfiedBy(paperFinalTable()) {
		t.Fatalf("3 rows satisfy cardinality 3")
	}
	// WithCardinality pads an existing values template.
	vt := paperValuesTemplate(t).WithCardinality(5)
	if len(vt.Rows) != 5 {
		t.Fatalf("WithCardinality rows = %d, want 5", len(vt.Rows))
	}
	if got := vt.WithCardinality(2); len(got.Rows) != 5 {
		t.Fatalf("WithCardinality must not shrink: %d", len(got.Rows))
	}
}

func TestTemplateValidateErrors(t *testing.T) {
	s := soccerSchema(t)
	// Width mismatch.
	if _, err := ValuesTemplate(s, model.VectorOf("a", "b")); err == nil {
		t.Errorf("width mismatch should fail")
	}
	// Bad value for typed column.
	if _, err := ValuesTemplate(s, model.VectorOf("", "", "", "abc", "")); err == nil {
		t.Errorf("non-integer caps should fail")
	}
	// Out-of-domain position.
	if _, err := ValuesTemplate(s, model.VectorOf("", "", "XX", "", "")); err == nil {
		t.Errorf("out-of-domain position should fail")
	}
	// Duplicate complete primary keys.
	_, err := ValuesTemplate(s,
		model.VectorOf("Messi", "Argentina", "", "", ""),
		model.VectorOf("Messi", "Argentina", "FW", "", ""))
	if err == nil || !strings.Contains(err.Error(), "primary key") {
		t.Errorf("duplicate keys should fail: %v", err)
	}
	// No schema.
	if err := (Template{}).Validate(); err == nil {
		t.Errorf("nil schema should fail")
	}
	// Predicates on ints with bad operand.
	if _, err := PredTemplate(s, TemplateRow{Any, Any, Any, Ge("abc"), Any}); err == nil {
		t.Errorf("Ge(abc) on int column should fail")
	}
}

func TestMatchCandidateOptimism(t *testing.T) {
	s := soccerSchema(t)
	tmpl, err := PredTemplate(s, TemplateRow{Any, Eq("Brazil"), Any, Any, Ge("30")})
	if err != nil {
		t.Fatal(err)
	}
	tr := tmpl.Rows[0]
	// Eq cell must be present; the Ge cell may still be empty.
	if !tmpl.MatchCandidate(tr, model.VectorOf("", "Brazil", "", "", "")) {
		t.Errorf("candidate with Brazil and empty goals should match optimistically")
	}
	if tmpl.MatchCandidate(tr, model.VectorOf("", "", "", "", "")) {
		t.Errorf("candidate missing the Eq cell should not match")
	}
	if tmpl.MatchCandidate(tr, model.VectorOf("", "Brazil", "", "", "10")) {
		t.Errorf("candidate with goals=10 violates Ge(30)")
	}
	// Final matching is strict: the Ge cell must be present.
	if tmpl.MatchFinal(tr, model.VectorOf("", "Brazil", "", "", "")) {
		t.Errorf("final row with empty goals must not match")
	}
	if !tmpl.MatchFinal(tr, model.VectorOf("Neymar", "Brazil", "FW", "83", "60")) {
		t.Errorf("complete satisfying row must match")
	}
}

func TestTemplateCounters(t *testing.T) {
	tmpl := paperValuesTemplate(t)
	// 3 rows × 5 columns = 15 cells, 3 pinned -> 12 empty.
	if got := tmpl.EmptyCells(); got != 12 {
		t.Errorf("EmptyCells = %d, want 12", got)
	}
	if got := tmpl.EmptyCellsInColumn(1); got != 1 {
		t.Errorf("EmptyCellsInColumn(nationality) = %d, want 1", got)
	}
	if got := tmpl.EmptyCellsInColumn(0); got != 3 {
		t.Errorf("EmptyCellsInColumn(name) = %d, want 3", got)
	}
}

func TestEqVector(t *testing.T) {
	tr := TemplateRow{Eq("Messi"), Any, Ge("10"), Any, Any}
	v := tr.EqVector()
	if !v[0].Set || v[0].Val != "Messi" || v[2].Set {
		t.Fatalf("EqVector = %v", v)
	}
	if tr.IsValuesRow() {
		t.Errorf("row with Ge is not a values row")
	}
	if (TemplateRow{Eq("x"), Any}).IsEmpty() {
		t.Errorf("row with Eq is not empty")
	}
}

func TestTemplateCloneIndependent(t *testing.T) {
	tmpl := paperValuesTemplate(t)
	c := tmpl.Clone()
	c.Rows[0][0] = Eq("changed")
	if tmpl.Rows[0][0].Op != OpAny {
		t.Fatalf("Clone aliased rows")
	}
}

// TestTemplateOperandsCanonical: clients only ever fill canonical values
// (Schema.CheckValue) and Pred.Holds compares `=`/`!=` operands as strings,
// so a template built from "07" on an int column must end up holding "7" —
// otherwise no fill can ever match it and the collection cannot finish. The
// constructors canonicalise; Validate rejects a hand-built non-canonical
// operand and names the canonical form.
func TestTemplateOperandsCanonical(t *testing.T) {
	s := model.MustSchema("T", []model.Column{
		{Name: "k"},
		{Name: "n", Type: model.TypeInt},
		{Name: "x", Type: model.TypeFloat},
		{Name: "d", Type: model.TypeDate},
	}, "k")
	cases := []struct {
		name  string
		col   int
		pred  Pred
		canon string
		fill  string // a canonical client fill
		holds bool   // whether fill satisfies the predicate
	}{
		{"int eq", 1, Eq("07"), "7", "7", true},
		{"int eq plus sign", 1, Eq("+7"), "7", "7", true},
		{"int ne", 1, Ne("007"), "7", "7", false},
		{"int ge", 1, Ge("010"), "10", "9", false},
		{"float eq", 2, Eq("1.50"), "1.5", "1.5", true},
		{"float ne", 2, Ne("1.50"), "1.5", "1.5", false},
		{"float ge exponent", 2, Ge("1e1"), "10", "10", true},
		{"date eq padded", 3, Eq(" 2014-06-22 "), "2014-06-22", "2014-06-22", true},
		{"date ge", 3, Ge("2014-06-22"), "2014-06-22", "2014-06-21", false},
		{"string untouched", 0, Eq("07"), "07", "07", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			row := make(TemplateRow, s.NumColumns())
			row[tc.col] = tc.pred
			tmpl, err := PredTemplate(s, row)
			if err != nil {
				t.Fatalf("PredTemplate: %v", err)
			}
			if row[tc.col] != tc.pred {
				t.Fatalf("PredTemplate modified the caller's row: %v", row[tc.col])
			}
			got := tmpl.Rows[0][tc.col]
			if got.Op != tc.pred.Op || got.Val != tc.canon {
				t.Fatalf("operand = %q, want canonical %q", got.Val, tc.canon)
			}
			final := model.NewVector(s.NumColumns())
			final[tc.col] = model.Cell{Set: true, Val: tc.fill}
			if holds := tmpl.MatchFinal(tmpl.Rows[0], final); holds != tc.holds {
				t.Fatalf("fill %q against %v: match = %v, want %v", tc.fill, got, holds, tc.holds)
			}

			// The same operand through ValuesTemplate (OpEq only).
			if tc.pred.Op == OpEq {
				v := model.NewVector(s.NumColumns())
				v[tc.col] = model.Cell{Set: true, Val: tc.pred.Val}
				vt, err := ValuesTemplate(s, v)
				if err != nil {
					t.Fatalf("ValuesTemplate: %v", err)
				}
				if got := vt.Rows[0].EqVector()[tc.col].Val; got != tc.canon {
					t.Fatalf("ValuesTemplate seed = %q, want %q", got, tc.canon)
				}
			}

			// A template assembled by hand keeps the raw operand; Validate
			// must refuse it unless it is already canonical.
			raw := Template{Schema: s, Rows: []TemplateRow{row}}
			err = raw.Validate()
			if tc.pred.Val == tc.canon {
				if err != nil {
					t.Fatalf("canonical operand rejected: %v", err)
				}
			} else if err == nil || !strings.Contains(err.Error(), `"`+tc.canon+`"`) {
				t.Fatalf("Validate(%v) = %v, want an error naming %q", tc.pred, err, tc.canon)
			}
		})
	}
}

// TestSatisfiedByBoundIsExact: the len(final) < |T| early return must agree
// with the matching it skips, on final tables both shorter and longer than
// the template.
func TestSatisfiedByBoundIsExact(t *testing.T) {
	s := soccerSchema(t)
	rng := rand.New(rand.NewSource(3))
	positions := []string{"GK", "DF", "MF", "FW"}
	nations := []string{"Brazil", "Spain", "Japan"}
	var sawTrue, sawShort bool
	for iter := 0; iter < 400; iter++ {
		rows := make([]TemplateRow, 1+rng.Intn(5))
		for i := range rows {
			tr := make(TemplateRow, s.NumColumns())
			switch rng.Intn(4) {
			case 0:
				tr[2] = Eq(positions[rng.Intn(len(positions))])
			case 1:
				tr[1] = Eq(nations[rng.Intn(len(nations))])
			case 2:
				tr[3] = Ge(fmt.Sprint(rng.Intn(100)))
			}
			rows[i] = tr
		}
		tmpl, err := PredTemplate(s, rows...)
		if err != nil {
			t.Fatal(err)
		}
		final := make([]*model.Row, rng.Intn(8))
		for i := range final {
			final[i] = &model.Row{ID: model.RowID(fmt.Sprintf("r-%02d", i)), Vec: model.VectorOf(
				fmt.Sprintf("p%d", i), nations[rng.Intn(len(nations))], positions[rng.Intn(len(positions))],
				fmt.Sprint(rng.Intn(100)), fmt.Sprint(rng.Intn(50)))}
		}
		adj := make([][]int, len(tmpl.Rows))
		for ti, tr := range tmpl.Rows {
			for si, r := range final {
				if tmpl.MatchFinal(tr, r.Vec) {
					adj[ti] = append(adj[ti], si)
				}
			}
		}
		want := MaxMatching(adj, len(final)).Size == len(tmpl.Rows)
		if got := tmpl.SatisfiedBy(final); got != want {
			t.Fatalf("iter %d: SatisfiedBy = %v, matching says %v (|T|=%d |final|=%d)",
				iter, got, want, len(tmpl.Rows), len(final))
		}
		sawTrue = sawTrue || want
		sawShort = sawShort || len(final) < len(tmpl.Rows)
	}
	if !sawTrue || !sawShort {
		t.Fatalf("inputs too tame: satisfied seen=%v, short final seen=%v", sawTrue, sawShort)
	}
}
