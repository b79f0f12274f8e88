// Package constraint implements CrowdFill's constraints on collected data
// (paper §2.3 and §4): cardinality constraints, values constraints, and the
// predicates-constraint generalization (described but not implemented in the
// paper's system; implemented here). It also provides the probable-rows
// computation, maximum bipartite matching between template rows and probable
// rows, and the Probable Rows Invariant repair planner that drives the
// system's Central Client.
package constraint

import (
	"encoding/json"
	"fmt"
	"strings"

	"crowdfill/internal/model"
)

// Op is a predicate operator on a template cell.
type Op int

const (
	// OpAny means the template cell is empty: any collected value (or no
	// value, for probable-row matching) is acceptable.
	OpAny Op = iota
	// OpEq requires the cell to hold exactly the operand value — this is
	// the paper's values constraint ("a value v is equivalent to =v").
	OpEq
	// OpNe requires the cell value to differ from the operand.
	OpNe
	// OpLt, OpLe, OpGt, OpGe compare using the column's type ordering.
	OpLt
	OpLe
	OpGt
	OpGe
)

var opNames = map[Op]string{
	OpAny: "", OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
}

// Pred is one template-cell predicate.
type Pred struct {
	Op  Op
	Val string
}

// Any is the unconstrained predicate.
var Any = Pred{Op: OpAny}

// Eq returns the "=v" predicate.
func Eq(v string) Pred { return Pred{Op: OpEq, Val: v} }

// Ge returns the ">=v" predicate.
func Ge(v string) Pred { return Pred{Op: OpGe, Val: v} }

// String renders the predicate in its parseable text form.
func (p Pred) String() string {
	if p.Op == OpAny {
		return ""
	}
	return opNames[p.Op] + p.Val
}

// ParsePred parses the text form: "" (any), "=v", "!=v", "<v", "<=v", ">v",
// ">=v". A bare value with no operator is treated as "=value".
func ParsePred(s string) (Pred, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "":
		return Any, nil
	case strings.HasPrefix(s, ">="):
		return mk(OpGe, s[2:])
	case strings.HasPrefix(s, "<="):
		return mk(OpLe, s[2:])
	case strings.HasPrefix(s, "!="):
		return mk(OpNe, s[2:])
	case strings.HasPrefix(s, "="):
		return mk(OpEq, s[1:])
	case strings.HasPrefix(s, ">"):
		return mk(OpGt, s[1:])
	case strings.HasPrefix(s, "<"):
		return mk(OpLt, s[1:])
	default:
		return mk(OpEq, s)
	}
}

func mk(op Op, val string) (Pred, error) {
	val = strings.TrimSpace(val)
	if val == "" {
		return Any, fmt.Errorf("constraint: predicate %q has no operand", opNames[op])
	}
	return Pred{Op: op, Val: val}, nil
}

// Holds reports whether a present value satisfies the predicate, comparing
// with the column type's ordering.
func (p Pred) Holds(t model.Type, val string) bool {
	switch p.Op {
	case OpAny:
		return true
	case OpEq:
		return val == p.Val
	case OpNe:
		return val != p.Val
	case OpLt:
		return model.CompareTyped(t, val, p.Val) < 0
	case OpLe:
		return model.CompareTyped(t, val, p.Val) <= 0
	case OpGt:
		return model.CompareTyped(t, val, p.Val) > 0
	case OpGe:
		return model.CompareTyped(t, val, p.Val) >= 0
	}
	return false
}

// MarshalJSON encodes the predicate as its text form.
func (p Pred) MarshalJSON() ([]byte, error) { return json.Marshal(p.String()) }

// UnmarshalJSON decodes the text form.
func (p *Pred) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	got, err := ParsePred(s)
	if err != nil {
		return err
	}
	*p = got
	return nil
}
