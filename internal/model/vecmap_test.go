package model

import (
	"fmt"
	"math/rand"
	"testing"
)

// hashedAs pairs v with a chosen hash, so a test decides which vectors
// collide.
func hashedAs(v Vector, sum uint64) HashedVec { return HashedVec{vec: v, sum: sum} }

// TestVecMapCollisions forces one hash onto vectors that differ in one cell,
// in null vs "", in width, and a nil vs an all-empty vector: each stays its
// own entry, and deleting the head, the middle or the tail of the chain
// leaves the others and Len right.
func TestVecMapCollisions(t *testing.T) {
	vecs := []Vector{
		VectorOf("a", "b"),
		VectorOf("a", "c"),                   // differs in one cell
		{{Set: true, Val: "a"}, {}},          // null …
		{{Set: true, Val: "a"}, {Set: true}}, // … vs ""
		VectorOf("a"),                        // another width
		nil,
		NewVector(2),                        // all cells empty
		{{Set: true, Val: "a"}, {Val: "b"}}, // an unset cell's Val is not part of the value
	}
	// The last vector equals the third: it must find that entry, not add one.
	distinct := vecs[:len(vecs)-1]
	for _, del := range []int{-1, 0, len(distinct) / 2, len(distinct) - 1} {
		t.Run(fmt.Sprintf("delete=%d", del), func(t *testing.T) {
			m := NewVecMap[int]()
			for i, v := range distinct {
				m.Set(hashedAs(v, 7), i)
			}
			m.Set(hashedAs(vecs[len(vecs)-1], 7), 2)
			want := len(distinct)
			if del >= 0 {
				m.Delete(hashedAs(distinct[del].Clone(), 7)) // by value, not by identity
				want--
			}
			if m.Len() != want {
				t.Fatalf("Len = %d, want %d", m.Len(), want)
			}
			seen := 0
			m.Each(func(Vector, int) { seen++ })
			if seen != want {
				t.Fatalf("Each visited %d entries, want %d", seen, want)
			}
			for i, v := range distinct {
				got, ok := m.Get(hashedAs(v, 7))
				if i == del {
					if ok {
						t.Errorf("deleted %v still maps to %d", v, got)
					}
					continue
				}
				if !ok || got != i {
					t.Errorf("Get(%v) = %d, %v; want %d, true", v, got, ok, i)
				}
			}
			if _, ok := m.Get(hashedAs(VectorOf("z", "z"), 7)); ok {
				t.Error("a vector never stored was found on the chain")
			}
		})
	}
}

// TestVecMapMatchesStringKeys drives a VecMap and a map keyed by
// Vector.Encode — the keying VecMap replaced — through the same random
// Set/Get/Delete/Each/Clone stream, with the hash degraded to four values so
// that most entries sit on chains.
func TestVecMapMatchesStringKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cell := func() Cell {
		switch rng.Intn(4) {
		case 0:
			return Cell{}
		case 1:
			return Cell{Set: true}
		default:
			return Cell{Set: true, Val: fmt.Sprint(rng.Intn(3))}
		}
	}
	vector := func() Vector {
		v := make(Vector, 1+rng.Intn(3))
		for i := range v {
			v[i] = cell()
		}
		return v
	}
	degraded := func(v Vector) HashedVec {
		k := v.Hashed()
		k.sum &= 3
		return k
	}
	m := NewVecMap[int]()
	ref := map[string]int{}
	for step := 0; step < 5000; step++ {
		v := vector()
		switch rng.Intn(4) {
		case 0, 1:
			m.Set(degraded(v), step)
			ref[v.Encode()] = step
		case 2:
			m.Delete(degraded(v))
			delete(ref, v.Encode())
		case 3:
			got, ok := m.Get(degraded(v))
			want, wantOK := ref[v.Encode()]
			if got != want || ok != wantOK {
				t.Fatalf("step %d: Get(%v) = %d, %v; want %d, %v", step, v, got, ok, want, wantOK)
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, m.Len(), len(ref))
		}
		if step%500 == 0 {
			checkEach(t, m, ref)
		}
	}
}

func checkEach(t *testing.T, m *VecMap[int], ref map[string]int) {
	t.Helper()
	got := map[string]int{}
	m.Each(func(v Vector, n int) {
		if _, dup := got[v.Encode()]; dup {
			t.Fatalf("Each visited %v twice", v)
		}
		got[v.Encode()] = n
	})
	if fmt.Sprint(got) != fmt.Sprint(ref) {
		t.Fatalf("Each = %v, want %v", got, ref)
	}
}

// TestVecMapSharesVectors: a new entry keeps the vector it was given, and a
// later Set through an equal vector keeps the first one.
func TestVecMapSharesVectors(t *testing.T) {
	m := NewVecMap[int]()
	v := VectorOf("a", "b")
	m.Set(v.Hashed(), 1)
	m.Set(v.Clone().Hashed(), 2)
	m.Each(func(w Vector, n int) {
		if &w[0] != &v[0] || n != 2 {
			t.Errorf("entry %v=%d: want the first vector, holding 2", w, n)
		}
	})
}
