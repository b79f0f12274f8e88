package model

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestCandidateValueIndex drives the value index through rows that share a
// value — the first row inline, the rest in the overflow — with deletes in
// random order and re-puts that move a row to another value, and checks after
// every step that EachWithValue visits exactly the rows carrying each value.
func TestCandidateValueIndex(t *testing.T) {
	s := MustSchema("P", []Column{{Name: "a"}, {Name: "b"}}, "a")
	values := []Vector{VectorOf("x", ""), VectorOf("x", "1"), VectorOf("y", "1")}
	rng := rand.New(rand.NewSource(3))
	c := NewCandidate(s)
	for step := 0; step < 2000; step++ {
		id := RowID(fmt.Sprintf("r%d", rng.Intn(12)))
		if rng.Intn(3) == 0 {
			c.Delete(id)
		} else {
			c.Put(&Row{ID: id, Vec: values[rng.Intn(len(values))]})
		}
		for _, v := range values {
			var want, got []RowID
			c.Each(func(r *Row) {
				if r.Vec.Equal(v) {
					want = append(want, r.ID)
				}
			})
			c.EachWithValue(v, func(r *Row) { got = append(got, r.ID) })
			slices.Sort(want)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: EachWithValue(%v) = %v, want %v", step, v, got, want)
			}
		}
	}
	for _, r := range c.Rows() {
		c.Delete(r.ID)
	}
	if n := c.byValue.Len(); n != 0 {
		t.Fatalf("an emptied table keeps %d value sets", n)
	}
}

// TestCandidateAllocs pins the table's share of the message path's
// allocation budget: a row with a new value costs nothing of the index's —
// no key string, no per-value map — and removing a row costs nothing.
func TestCandidateAllocs(t *testing.T) {
	s := MustSchema("P", []Column{{Name: "name"}, {Name: "nat"}}, "name")
	const runs = 100
	rows := make([]*Row, runs+1)
	for i := range rows {
		rows[i] = &Row{ID: RowID(fmt.Sprintf("r%d", i)), Vec: VectorOf(fmt.Sprintf("player %d", i), "Argentina")}
	}
	c := NewCandidate(s)
	i := 0
	if n := testing.AllocsPerRun(runs, func() { c.Put(rows[i]); c.Delete(rows[i].ID); i++ }); n != 0 {
		t.Errorf("Candidate.Put of a new value, then Delete: %v allocs/op, want 0", n)
	}
	for _, r := range rows {
		c.Put(r)
	}
	i = 0
	if n := testing.AllocsPerRun(runs, func() { c.Delete(rows[i].ID); i++ }); n != 0 {
		t.Errorf("Candidate.Delete: %v allocs/op, want 0", n)
	}
}
