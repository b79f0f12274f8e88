package constraint

import (
	"encoding/json"
	"testing"

	"crowdfill/internal/model"
)

// Le returns the "<=v" predicate.
func Le(v string) Pred { return Pred{Op: OpLe, Val: v} }

// Gt returns the ">v" predicate.
func Gt(v string) Pred { return Pred{Op: OpGt, Val: v} }

// Lt returns the "<v" predicate.
func Lt(v string) Pred { return Pred{Op: OpLt, Val: v} }

// Ne returns the "!=v" predicate.
func Ne(v string) Pred { return Pred{Op: OpNe, Val: v} }

func TestParsePred(t *testing.T) {
	cases := []struct {
		in   string
		want Pred
		err  bool
	}{
		{"", Any, false},
		{"=FW", Eq("FW"), false},
		{"FW", Eq("FW"), false},
		{">=30", Ge("30"), false},
		{"<=100", Le("100"), false},
		{">5", Gt("5"), false},
		{"<5", Lt("5"), false},
		{"!=GK", Ne("GK"), false},
		{"  =Brazil ", Eq("Brazil"), false},
		{">=", Pred{}, true},
		{"=", Pred{}, true},
	}
	for _, tc := range cases {
		got, err := ParsePred(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("ParsePred(%q): want error", tc.in)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParsePred(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

func TestPredStringRoundTrip(t *testing.T) {
	for _, p := range []Pred{Any, Eq("x"), Ne("x"), Lt("3"), Le("3"), Gt("3"), Ge("3")} {
		got, err := ParsePred(p.String())
		if err != nil || got != p {
			t.Errorf("round trip %v -> %q -> %v, %v", p, p.String(), got, err)
		}
	}
}

func TestPredHolds(t *testing.T) {
	cases := []struct {
		p    Pred
		typ  model.Type
		val  string
		want bool
	}{
		{Any, model.TypeString, "anything", true},
		{Eq("FW"), model.TypeString, "FW", true},
		{Eq("FW"), model.TypeString, "MF", false},
		{Ne("FW"), model.TypeString, "MF", true},
		{Ge("30"), model.TypeInt, "30", true},
		{Ge("30"), model.TypeInt, "29", false},
		{Ge("30"), model.TypeInt, "100", true},
		{Gt("30"), model.TypeInt, "30", false},
		{Le("100"), model.TypeInt, "100", true},
		{Lt("100"), model.TypeInt, "99", true},
		{Ge("9"), model.TypeInt, "10", true},     // numeric, not lexicographic
		{Ge("9"), model.TypeString, "10", false}, // lexicographic for strings
		{Ge("1980-01-01"), model.TypeDate, "1987-06-24", true},
	}
	for _, tc := range cases {
		if got := tc.p.Holds(tc.typ, tc.val); got != tc.want {
			t.Errorf("%v.Holds(%v, %q) = %v, want %v", tc.p, tc.typ, tc.val, got, tc.want)
		}
	}
}

func TestPredJSON(t *testing.T) {
	in := []Pred{Any, Eq("Brazil"), Ge("30")}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out []Pred
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("round trip [%d]: %v != %v", i, out[i], in[i])
		}
	}
	var bad Pred
	if err := json.Unmarshal([]byte(`5`), &bad); err == nil {
		t.Errorf("unmarshal non-string should fail")
	}
	if err := json.Unmarshal([]byte(`">="`), &bad); err == nil {
		t.Errorf("unmarshal operandless pred should fail")
	}
}
