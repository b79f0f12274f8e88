package constraint_test

import (
	"fmt"

	"crowdfill/internal/constraint"
	"crowdfill/internal/model"
)

// ExampleTemplate_SatisfiedBy checks the paper's §2.3 values constraint
// against its §2.2 final table.
func ExampleTemplate_SatisfiedBy() {
	s := model.MustSchema("SoccerPlayer", []model.Column{
		{Name: "name"}, {Name: "nationality"}, {Name: "position"},
		{Name: "caps", Type: model.TypeInt}, {Name: "goals", Type: model.TypeInt},
	}, "name", "nationality")
	// One forward from any country, one Brazilian, one Spaniard.
	free, eq := constraint.Any, constraint.Eq
	tmpl, _ := constraint.PredTemplate(s,
		constraint.TemplateRow{free, free, eq("FW"), free, free},
		constraint.TemplateRow{free, eq("Brazil"), free, free, free},
		constraint.TemplateRow{free, eq("Spain"), free, free, free},
	)
	final := []*model.Row{
		{ID: "r-1", Vec: model.VectorOf("Lionel Messi", "Argentina", "FW", "83", "37")},
		{ID: "r-2", Vec: model.VectorOf("Ronaldinho", "Brazil", "MF", "97", "33")},
		{ID: "r-3", Vec: model.VectorOf("Iker Casillas", "Spain", "GK", "150", "0")},
	}
	fmt.Println(tmpl.SatisfiedBy(final))
	fmt.Println(tmpl.SatisfiedBy(final[:2]))
	// Output:
	// true
	// false
}

// ExampleParsePred shows the predicate text forms the §2.3 predicates
// constraint uses.
func ExampleParsePred() {
	for _, s := range []string{"", "=FW", "Brazil", ">=30"} {
		p, _ := constraint.ParsePred(s)
		fmt.Printf("%q -> %q\n", s, p.String())
	}
	// Output:
	// "" -> ""
	// "=FW" -> "=FW"
	// "Brazil" -> "=Brazil"
	// ">=30" -> ">=30"
}
