// Package model implements CrowdFill's formal model of tables (paper §2.1–2.2):
// schemas, value vectors, candidate rows with vote counts, scoring functions,
// and the derivation of a final table from a candidate table.
package model

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Type is the data type of a column.
type Type int

const (
	// TypeString accepts any non-empty string value.
	TypeString Type = iota
	// TypeInt accepts base-10 integers.
	TypeInt
	// TypeFloat accepts decimal numbers.
	TypeFloat
	// TypeDate accepts ISO dates (YYYY-MM-DD).
	TypeDate
)

// String returns the lowercase name of the type.
func (t Type) String() string {
	switch t {
	case TypeString:
		return "string"
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	case TypeDate:
		return "date"
	}
	return fmt.Sprintf("type(%d)", int(t))
}

// ParseType converts a type name ("string", "int", "float", "date") to a Type.
func ParseType(s string) (Type, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "string", "str", "text":
		return TypeString, nil
	case "int", "integer":
		return TypeInt, nil
	case "float", "double", "number":
		return TypeFloat, nil
	case "date":
		return TypeDate, nil
	}
	return TypeString, fmt.Errorf("model: unknown type %q", s)
}

// Column is one column definition: a name, a data type, and an optional
// domain (set of allowed values).
type Column struct {
	Name   string   `json:"name"`
	Type   Type     `json:"type"`
	Domain []string `json:"domain,omitempty"`
}

// Schema describes the table being collected: column definitions plus the
// primary key. By default (empty Key), all columns together form the key,
// i.e. the final table must simply have no duplicate rows.
type Schema struct {
	Name    string   `json:"name"`
	Columns []Column `json:"columns"`
	// Key holds indexes into Columns of the primary-key columns.
	Key []int `json:"key,omitempty"`
}

// NewSchema builds a schema and validates it. keyCols name the primary-key
// columns; if none are given, all columns form the key.
func NewSchema(name string, cols []Column, keyCols ...string) (*Schema, error) {
	s := &Schema{Name: name, Columns: cols}
	for _, kc := range keyCols {
		idx := -1
		for i, c := range cols {
			if c.Name == kc {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("model: key column %q not in schema", kc)
		}
		s.Key = append(s.Key, idx)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error, for tests and examples.
func MustSchema(name string, cols []Column, keyCols ...string) *Schema {
	s, err := NewSchema(name, cols, keyCols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Validate checks structural well-formedness of the schema.
func (s *Schema) Validate() error {
	if s == nil {
		return errors.New("model: nil schema")
	}
	if s.Name == "" {
		return errors.New("model: schema needs a name")
	}
	if len(s.Columns) == 0 {
		return errors.New("model: schema needs at least one column")
	}
	seen := make(map[string]bool, len(s.Columns))
	for i, c := range s.Columns {
		if c.Name == "" {
			return fmt.Errorf("model: column %d has no name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("model: duplicate column name %q", c.Name)
		}
		seen[c.Name] = true
		for _, dv := range c.Domain {
			if _, err := CanonicalValue(c.Type, dv); err != nil {
				return fmt.Errorf("model: column %q domain value %q: %w", c.Name, dv, err)
			}
		}
	}
	seenKey := make(map[int]bool, len(s.Key))
	for _, k := range s.Key {
		if k < 0 || k >= len(s.Columns) {
			return fmt.Errorf("model: key column index %d out of range", k)
		}
		if seenKey[k] {
			return fmt.Errorf("model: duplicate key column index %d", k)
		}
		seenKey[k] = true
	}
	return nil
}

// NumColumns returns the number of columns.
func (s *Schema) NumColumns() int { return len(s.Columns) }

// ColumnNames returns the column names in schema order.
func (s *Schema) ColumnNames() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// ColumnIndex returns the index of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// KeyColumns returns the indexes of the primary-key columns. When no explicit
// key was declared, all columns form the key.
func (s *Schema) KeyColumns() []int {
	if len(s.Key) > 0 {
		return s.Key
	}
	all := make([]int, len(s.Columns))
	for i := range all {
		all[i] = i
	}
	return all
}

// IsKeyColumn reports whether column index i belongs to the primary key.
func (s *Schema) IsKeyColumn(i int) bool {
	for _, k := range s.KeyColumns() {
		if k == i {
			return true
		}
	}
	return false
}

// CheckValue validates and canonicalizes a value for column col.
func (s *Schema) CheckValue(col int, v string) (string, error) {
	if col < 0 || col >= len(s.Columns) {
		return "", fmt.Errorf("model: column index %d out of range", col)
	}
	c := s.Columns[col]
	cv, err := CanonicalValue(c.Type, v)
	if err != nil {
		return "", fmt.Errorf("model: column %q: %w", c.Name, err)
	}
	if len(c.Domain) > 0 {
		ok := false
		for _, dv := range c.Domain {
			cd, _ := CanonicalValue(c.Type, dv)
			if cd == cv {
				ok = true
				break
			}
		}
		if !ok {
			return "", fmt.Errorf("model: column %q: value %q not in domain", c.Name, v)
		}
	}
	return cv, nil
}

// CanonicalValue parses raw according to t and returns its canonical string
// form, so that equal values compare equal as strings ("07" and "7" both
// canonicalize to "7" for ints).
func CanonicalValue(t Type, raw string) (string, error) {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return "", errors.New("empty value")
	}
	switch t {
	case TypeString:
		return raw, nil
	case TypeInt:
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return "", fmt.Errorf("not an integer: %q", raw)
		}
		return strconv.FormatInt(n, 10), nil
	case TypeFloat:
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return "", fmt.Errorf("not a number: %q", raw)
		}
		return strconv.FormatFloat(f, 'g', -1, 64), nil
	case TypeDate:
		d, err := time.Parse("2006-01-02", raw)
		if err != nil {
			return "", fmt.Errorf("not a date (want YYYY-MM-DD): %q", raw)
		}
		return d.Format("2006-01-02"), nil
	}
	return "", fmt.Errorf("unknown type %v", t)
}

// CompareTyped compares two canonical values of type t, returning -1, 0, or 1.
// Used by predicates constraints.
func CompareTyped(t Type, a, b string) int {
	switch t {
	case TypeInt:
		x, _ := strconv.ParseInt(a, 10, 64)
		y, _ := strconv.ParseInt(b, 10, 64)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case TypeFloat:
		x, _ := strconv.ParseFloat(a, 64)
		y, _ := strconv.ParseFloat(b, 64)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	default: // strings and dates compare lexicographically (ISO dates sort correctly)
		return strings.Compare(a, b)
	}
}
