package model

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestVectorStates(t *testing.T) {
	empty := NewVector(3)
	if !empty.IsEmpty() || empty.IsPartial() || empty.IsComplete() {
		t.Fatalf("empty vector state wrong")
	}
	partial := VectorOf("a", "", "c")
	if partial.IsEmpty() || !partial.IsPartial() || partial.IsComplete() {
		t.Fatalf("partial vector state wrong")
	}
	complete := VectorOf("a", "b", "c")
	if !complete.IsComplete() || !complete.IsPartial() {
		t.Fatalf("complete vector state wrong (a complete row is also partial)")
	}
	if got := partial.CountSet(); got != 2 {
		t.Fatalf("CountSet = %d, want 2", got)
	}
}

func TestVectorSubset(t *testing.T) {
	full := VectorOf("Messi", "Argentina", "FW", "83", "37")
	sub := VectorOf("Messi", "", "FW", "", "")
	if !sub.Subset(full) {
		t.Fatalf("%v should be ⊆ %v", sub, full)
	}
	if full.Subset(sub) {
		t.Fatalf("%v should not be ⊆ %v", full, sub)
	}
	if !full.Superset(sub) {
		t.Fatalf("Superset inverse failed")
	}
	other := VectorOf("Messi", "", "MF", "", "")
	if other.Subset(full) {
		t.Fatalf("differing value should break subset")
	}
	if NewVector(4).Subset(full) {
		t.Fatalf("width mismatch should break subset")
	}
	// Reflexivity and the empty vector.
	if !full.Subset(full) {
		t.Fatalf("subset not reflexive")
	}
	if !NewVector(5).Subset(full) {
		t.Fatalf("empty vector should be subset of anything same width")
	}
}

func TestVectorWithDoesNotAlias(t *testing.T) {
	v := VectorOf("a", "", "")
	w := v.With(1, "b")
	if v[1].Set {
		t.Fatalf("With mutated the receiver")
	}
	if !w[1].Set || w[1].Val != "b" || !w[0].Set {
		t.Fatalf("With result wrong: %v", w)
	}
}

func TestVectorEncodeInjective(t *testing.T) {
	// Vectors that could collide under naive joining must encode distinctly.
	pairs := [][2]Vector{
		{VectorOf("ab", ""), VectorOf("a", "b")},
		{VectorOf("a|b", ""), VectorOf("a", "b")},
		{VectorOf("", "ab"), VectorOf("ab", "")},
		{VectorOf("1:a", ""), VectorOf("a", "")},
	}
	for _, p := range pairs {
		if p[0].Encode() == p[1].Encode() {
			t.Errorf("Encode collision: %v vs %v -> %q", p[0], p[1], p[0].Encode())
		}
	}
	v := VectorOf("x", "y")
	if v.Encode() != v.Clone().Encode() {
		t.Errorf("Encode not stable under Clone")
	}
}

func TestVectorEncodeInjectiveQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gen := func() Vector {
		v := NewVector(3)
		alphabet := []string{"", "a", "b", "|", ":", "ab", "a|b", "1:a", "_"}
		for i := range v {
			s := alphabet[rng.Intn(len(alphabet))]
			if s != "" {
				v[i] = Cell{Set: true, Val: s}
			}
		}
		return v
	}
	f := func() bool {
		a, b := gen(), gen()
		if a.Equal(b) {
			return a.Encode() == b.Encode()
		}
		return a.Encode() != b.Encode()
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestVectorProjectAndKey(t *testing.T) {
	s := soccerSchema(t)
	v := VectorOf("Messi", "Argentina", "FW", "83", "37")
	key := v.Project(s.KeyColumns())
	if key.CountSet() != 2 || !key[0].Set || !key[1].Set {
		t.Fatalf("Project(key) = %v", key)
	}
	if !v.KeyComplete(s) {
		t.Fatalf("KeyComplete should hold")
	}
	partial := VectorOf("Messi", "", "FW", "", "")
	if partial.KeyComplete(s) {
		t.Fatalf("KeyComplete should fail with empty nationality")
	}
	v2 := VectorOf("Messi", "Argentina", "MF", "", "")
	if v.KeyOf(s) != v2.KeyOf(s) {
		t.Fatalf("KeyOf should agree on same key values")
	}
	v3 := VectorOf("Messi", "Brazil", "FW", "83", "37")
	if v.KeyOf(s) == v3.KeyOf(s) {
		t.Fatalf("KeyOf should differ on different nationality")
	}
}

func TestVectorJSONRoundTrip(t *testing.T) {
	v := VectorOf("Messi", "", "FW", "", "37")
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var w Vector
	if err := json.Unmarshal(data, &w); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !v.Equal(w) {
		t.Fatalf("round trip changed vector: %v -> %v", v, w)
	}
	var bad Vector
	if err := json.Unmarshal([]byte(`{"x":1}`), &bad); err == nil {
		t.Fatalf("unmarshal of non-array should fail")
	}
}

func TestVectorString(t *testing.T) {
	v := VectorOf("a", "", "c")
	if got := v.String(); got != "(a, ·, c)" {
		t.Fatalf("String = %q", got)
	}
}

// keySink keeps a key string alive, as the map that stores it would.
var keySink string

// TestVectorKeyAllocs pins the key paths' share of the message path's
// allocation budget: a key string costs exactly one allocation, and a lookup
// by value — hashed where the cells lie — costs none.
func TestVectorKeyAllocs(t *testing.T) {
	s := MustSchema("P", []Column{{Name: "name"}, {Name: "nat"}, {Name: "pos"}}, "name", "nat")
	v := VectorOf("Lionel Messi", "Argentina", "FW")
	if n := testing.AllocsPerRun(100, func() { keySink = v.Encode() }); n != 1 {
		t.Errorf("Vector.Encode: %v allocs/op, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { keySink = v.KeyOf(s) }); n != 1 {
		t.Errorf("Vector.KeyOf: %v allocs/op, want 1", n)
	}
	c := NewCandidate(s)
	c.Put(&Row{ID: "r1", Vec: v})
	seen := 0
	if n := testing.AllocsPerRun(100, func() { c.EachWithValue(v, func(*Row) { seen++ }) }); n != 0 {
		t.Errorf("Candidate.EachWithValue: %v allocs/op, want 0", n)
	}
	if seen == 0 {
		t.Fatalf("EachWithValue never visited the row")
	}
}

// TestVectorKeyForms: AppendKey is Encode's bytes and AppendKeyOf is KeyOf's
// — with and without a declared key, and for keys that outgrow the lookup
// scratch — and both extend dst rather than replace it.
func TestVectorKeyForms(t *testing.T) {
	keyed := MustSchema("P", []Column{{Name: "a"}, {Name: "b"}, {Name: "c"}}, "c", "a")
	unkeyed := MustSchema("Q", []Column{{Name: "a"}, {Name: "b"}, {Name: "c"}})
	long := strings.Repeat("x", 2*KeyScratch)
	for _, v := range []Vector{
		VectorOf("1", "", "33"),
		VectorOf("", "", ""),
		VectorOf(long, "b", long),
	} {
		if got := string(v.AppendKey([]byte("pre"))); got != "pre"+v.Encode() {
			t.Errorf("AppendKey(%v) = %q, want %q", v, got, "pre"+v.Encode())
		}
		for _, s := range []*Schema{keyed, unkeyed} {
			if got := string(v.AppendKeyOf([]byte("pre"), s)); got != "pre"+v.KeyOf(s) {
				t.Errorf("AppendKeyOf(%v, %s) = %q, want %q", v, s.Name, got, "pre"+v.KeyOf(s))
			}
		}
	}
	if got, want := VectorOf("1", "", "33").Encode(), "1:1|_|2:33|"; got != want {
		t.Errorf("Encode = %q, want %q (stored snapshots and traces carry this form)", got, want)
	}
	if got, want := VectorOf("1", "", "33").KeyOf(keyed), "2:33|1:1|"; got != want {
		t.Errorf("KeyOf = %q, want %q", got, want)
	}
}
