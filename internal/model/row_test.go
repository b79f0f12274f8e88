package model

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
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

// TestCandidateOrderProperty drives a table through random inserts, replaces
// and deletes, and checks after every step that Rows is the id-sorted list of
// the rows the table holds, that Each visits that same order, and that a
// caller shuffling what Rows returned leaves the next Rows as it was.
func TestCandidateOrderProperty(t *testing.T) {
	s := MustSchema("P", []Column{{Name: "a"}, {Name: "b"}}, "a")
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewCandidate(s)
		for step := 0; step < 500; step++ {
			id := RowID(fmt.Sprintf("w%d-%d", rng.Intn(5), rng.Intn(40)))
			if rng.Intn(3) == 0 {
				c.Delete(id)
			} else {
				// A new id inserts; a held one is replaced in place.
				c.Put(&Row{ID: id, Vec: VectorOf(fmt.Sprint(rng.Intn(8)), ""), Up: step})
			}
			want := make([]*Row, 0, len(c.rows))
			for _, r := range c.rows {
				want = append(want, r)
			}
			slices.SortFunc(want, func(a, b *Row) int { return strings.Compare(string(a.ID), string(b.ID)) })
			got := c.Rows()
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: Rows = %v, want the map's rows by id %v", seed, step, got, want)
			}
			var each []*Row
			c.Each(func(r *Row) { each = append(each, r) })
			if !slices.Equal(each, want) {
				t.Fatalf("seed %d step %d: Each visits %v, want %v", seed, step, each, want)
			}
			rng.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
			if again := c.Rows(); !slices.Equal(again, want) {
				t.Fatalf("seed %d step %d: shuffling a returned slice reordered the table: %v", seed, step, again)
			}
		}
	}
}

// TestCandidateFillAllocs pins what one fill costs the table — Delete of the
// filled row's id, Put of its successor under a new id — on a warmed
// 270-row table (table200's size at the end of a collection), with five
// origins minting ids as five workers' clients would, so a new id lands
// inside the id order and not only at its end. Keeping the id order costs no
// allocation: the order slice shrinks by one and regrows by one in place.
// Before the table kept its order the figure was the same, 0 (the id map's
// occasional growth — 4 allocations over these 2 000 fills on both — is
// under one per fill).
func TestCandidateFillAllocs(t *testing.T) {
	const size, runs, origins = 270, 2000, 5
	s := MustSchema("P", []Column{{Name: "a"}, {Name: "b"}}, "a")
	var next [origins]int
	mint := func(i int) *Row {
		o := i % origins
		next[o]++
		return &Row{ID: RowID(fmt.Sprintf("w%d-%06d", o, next[o])), Vec: VectorOf(fmt.Sprintf("p%d", i), "x")}
	}
	c := NewCandidate(s)
	fifo := make([]RowID, 0, size+runs+1)
	fresh := make([]*Row, 0, size+runs+1)
	for i := 0; i < size+runs+1; i++ {
		fresh = append(fresh, mint(i))
	}
	for _, r := range fresh[:size] {
		c.Put(r)
		fifo = append(fifo, r.ID)
	}
	i := size
	fill := func() {
		c.Delete(fifo[0])
		fifo = fifo[1:]
		c.Put(fresh[i])
		fifo = append(fifo, fresh[i].ID)
		i++
	}
	if got := testing.AllocsPerRun(runs, fill); got != 0 {
		t.Fatalf("a fill allocates %v on a warmed %d-row table, want 0", got, size)
	}
	if c.Len() != size {
		t.Fatalf("table holds %d rows after the fills, want %d", c.Len(), size)
	}
}
