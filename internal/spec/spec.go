// Package spec defines the JSON table specification a CrowdFill user submits
// through the front-end (paper §3.2, Figure 3's table schema editor): the
// schema, scoring function, constraint template, budget, and allocation
// scheme — and builds the back-end server configuration from it, or the
// replay of a finished collection's log.
package spec

import (
	"errors"
	"fmt"

	"crowdfill/internal/constraint"
	"crowdfill/internal/model"
	"crowdfill/internal/pay"
	"crowdfill/internal/replay"
	"crowdfill/internal/server"
)

// ColumnSpec describes one column.
type ColumnSpec struct {
	Name string `json:"name"`
	// Type is "string", "int", "float", or "date" (default "string").
	Type string `json:"type,omitempty"`
	// Domain optionally restricts allowed values.
	Domain []string `json:"domain,omitempty"`
}

// ScoringSpec selects the vote-aggregation function.
type ScoringSpec struct {
	// Kind is "default" (u−d) or "majority" (the paper's majority-of-K
	// with shortcutting).
	Kind string `json:"kind,omitempty"`
	// K is the majority size (default 3).
	K int `json:"k,omitempty"`
}

// TableSpec is the full user-facing specification.
type TableSpec struct {
	Name    string       `json:"name"`
	Columns []ColumnSpec `json:"columns"`
	// Key lists primary-key column names (default: all columns).
	Key     []string    `json:"key,omitempty"`
	Scoring ScoringSpec `json:"scoring,omitempty"`
	// Template holds constraint rows in predicate text form, one cell per
	// column: "" (any), "=v" or bare "v" (values constraint), ">=v" etc.
	// (predicates constraint).
	Template [][]string `json:"template,omitempty"`
	// Cardinality pads the template with empty rows to a minimum size.
	Cardinality int `json:"cardinality,omitempty"`
	// Budget is the total monetary budget B.
	Budget float64 `json:"budget"`
	// Scheme is "uniform", "column-weighted", or "dual-weighted".
	Scheme string `json:"scheme,omitempty"`
	// MaxVotesPerRow caps votes per row (0 = unlimited).
	MaxVotesPerRow int `json:"maxVotesPerRow,omitempty"`
	// SplitKey/SplitNonKey override the §5.2.3 splitting factors.
	SplitKey    float64 `json:"splitKey,omitempty"`
	SplitNonKey float64 `json:"splitNonKey,omitempty"`
	// TrackPerformance enables per-worker performance scaling of the
	// displayed estimates (the §5.3 refinement).
	TrackPerformance bool `json:"trackPerformance,omitempty"`
}

// Schema builds and validates the model schema.
func (ts TableSpec) Schema() (*model.Schema, error) {
	if ts.Name == "" {
		return nil, errors.New("spec: table needs a name")
	}
	cols := make([]model.Column, len(ts.Columns))
	for i, c := range ts.Columns {
		typ := model.TypeString
		if c.Type != "" {
			var err error
			typ, err = model.ParseType(c.Type)
			if err != nil {
				return nil, err
			}
		}
		cols[i] = model.Column{Name: c.Name, Type: typ, Domain: c.Domain}
	}
	return model.NewSchema(ts.Name, cols, ts.Key...)
}

// Score builds the scoring function.
func (ts TableSpec) Score() (model.ScoreFunc, error) {
	switch ts.Scoring.Kind {
	case "", "default":
		return model.DefaultScore, nil
	case "majority":
		k := ts.Scoring.K
		if k == 0 {
			k = 3
		}
		if k < 1 {
			return nil, fmt.Errorf("spec: majority size %d invalid", k)
		}
		return model.MajorityShortcut(k), nil
	}
	return nil, fmt.Errorf("spec: unknown scoring kind %q", ts.Scoring.Kind)
}

// BuildTemplate parses the constraint template against the schema.
func (ts TableSpec) BuildTemplate(s *model.Schema) (constraint.Template, error) {
	rows := make([]constraint.TemplateRow, 0, len(ts.Template))
	for ri, raw := range ts.Template {
		if len(raw) != s.NumColumns() {
			return constraint.Template{}, fmt.Errorf(
				"spec: template row %d has %d cells, schema has %d columns",
				ri, len(raw), s.NumColumns())
		}
		tr := make(constraint.TemplateRow, len(raw))
		for ci, cell := range raw {
			p, err := constraint.ParsePred(cell)
			if err != nil {
				return constraint.Template{}, fmt.Errorf("spec: template row %d column %d: %w", ri, ci, err)
			}
			tr[ci] = p
		}
		rows = append(rows, tr)
	}
	tmpl, err := constraint.PredTemplate(s, rows...)
	if err != nil {
		return constraint.Template{}, err
	}
	if ts.Cardinality > 0 {
		tmpl = tmpl.WithCardinality(ts.Cardinality)
	}
	if len(tmpl.Rows) == 0 {
		return constraint.Template{}, errors.New("spec: need a template or a cardinality")
	}
	return tmpl, nil
}

// AllocScheme parses the allocation scheme.
func (ts TableSpec) AllocScheme() (pay.Scheme, error) {
	if ts.Scheme == "" {
		return pay.Uniform, nil
	}
	return pay.ParseScheme(ts.Scheme)
}

// Build assembles the back-end server configuration.
func (ts TableSpec) Build() (server.Config, error) {
	s, err := ts.Schema()
	if err != nil {
		return server.Config{}, err
	}
	score, err := ts.Score()
	if err != nil {
		return server.Config{}, err
	}
	tmpl, err := ts.BuildTemplate(s)
	if err != nil {
		return server.Config{}, err
	}
	scheme, err := ts.AllocScheme()
	if err != nil {
		return server.Config{}, err
	}
	if ts.Budget < 0 {
		return server.Config{}, errors.New("spec: negative budget")
	}
	return server.Config{
		Schema:           s,
		Score:            score,
		Template:         tmpl,
		Budget:           ts.Budget,
		Scheme:           scheme,
		MaxVotesPerRow:   ts.MaxVotesPerRow,
		SplitKey:         ts.SplitKey,
		SplitNonKey:      ts.SplitNonKey,
		TrackPerformance: ts.TrackPerformance,
	}, nil
}

// Audit prices a collection's bookkeeping log under spec ts (§3.3): it
// builds the spec's configuration and hands it to server.Audit, so a log
// the collection wrote gives back the collection's own pay. Auditing under
// another scheme or budget is an edit to the spec value before the call.
func Audit(ts TableSpec, log replay.Log) (*replay.Audit, error) {
	cfg, err := ts.Build()
	if err != nil {
		return nil, err
	}
	return server.Audit(cfg, log)
}
