package crowd

import (
	"fmt"
	"math/rand"
	"testing"

	"crowdfill/internal/model"
)

// The linear scans the crowd's lookups were written as before they were
// indexed, kept here as the executable spec: each indexed lookup must return
// the very row (same backing array) the scan returns, because which of
// several consistent rows a worker picks decides what they fill next.

// linearLookup is lookupKnown / LookupByKey: the first row with v's key.
func linearLookup(s *model.Schema, rows []model.Vector, v model.Vector) model.Vector {
	if !v.KeyComplete(s) {
		return nil
	}
	want := model.NewVector(len(v)) // v restricted to its key cells
	for _, c := range s.KeyColumns() {
		want[c] = v[c]
	}
	for _, row := range rows {
		if want.Subset(row) {
			return row
		}
	}
	return nil
}

// linearMatchFresh is matchKnownFresh.
func linearMatchFresh(s *model.Schema, known []model.Vector, v model.Vector, taken map[string]bool) model.Vector {
	kc0 := s.KeyColumns()[0]
	keyPinned := v[kc0].Set
	for _, row := range known {
		if !v.Subset(row) {
			continue
		}
		if keyPinned || !taken[row[kc0].Val] {
			return row
		}
	}
	return nil
}

// linearConflicts is lookupFacts' conflict.
func linearConflicts(s *model.Schema, known []model.Vector, v model.Vector) bool {
	truth := linearLookup(s, known, v)
	return truth != nil && !v.Subset(truth)
}

// linearSupports is truthSupports.
func linearSupports(rows []model.Vector, v model.Vector) bool {
	for _, row := range rows {
		if v.Subset(row) {
			return true
		}
	}
	return false
}

// linearContains is Dataset.Contains.
func linearContains(rows []model.Vector, v model.Vector) bool {
	for _, row := range rows {
		if row.Equal(v) {
			return true
		}
	}
	return false
}

// sameRow reports whether a and b are the same row, not merely equal ones.
func sameRow(a, b model.Vector) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return &a[0] == &b[0]
}

// specDataset draws one of three truth shapes: the soccer schema (a two-column
// key whose leading values repeat: 1 600 names), a single-key generic schema,
// and a schema with no declared key (every column is a key column), whose
// small domains make every posting list long.
func specDataset(rng *rand.Rand, seed int64) *Dataset {
	n := 30 + rng.Intn(371)
	switch seed % 3 {
	case 0:
		return SoccerPlayers(seed, n)
	case 1:
		return Generic(seed, model.MustSchema("P", []model.Column{
			{Name: "sku", Type: model.TypeString},
			{Name: "cat", Type: model.TypeString, Domain: []string{"a", "b", "c"}},
			{Name: "price", Type: model.TypeFloat},
			{Name: "when", Type: model.TypeDate},
		}, "sku"), n)
	default:
		return Generic(seed, model.MustSchema("N", []model.Column{
			{Name: "kind", Type: model.TypeString, Domain: []string{"x", "y", "z", "w"}},
			{Name: "size", Type: model.TypeString, Domain: []string{"s", "m", "l"}},
			{Name: "n", Type: model.TypeInt},
		}), n)
	}
}

// specProbe draws a lookup argument: a truth row with random cells cleared,
// possibly typo'd, given a fabricated key, with its leading key opened, or
// with nothing set at all.
func specProbe(rng *rand.Rand, d *Dataset) model.Vector {
	kc := d.Schema.KeyColumns()
	v := d.Rows[rng.Intn(len(d.Rows))].Clone()
	switch rng.Intn(8) {
	case 0: // the row itself
	case 1: // nothing set
		return model.NewVector(len(v))
	case 2: // a typo somewhere
		col := rng.Intn(len(v))
		v[col].Val += "e"
	case 3: // a fabricated key on real attributes
		v[kc[0]].Val = "Nobody Atall"
	case 4: // leading key open, other cells set
		v[kc[0]] = model.Cell{}
	case 5: // another row's value in one column: consistent with neither, or with a third
		col := rng.Intn(len(v))
		v[col] = d.Rows[rng.Intn(len(d.Rows))][col]
	default:
	}
	for col := range v {
		if rng.Intn(3) == 0 {
			v[col] = model.Cell{}
		}
	}
	return v
}

func TestLookupsMatchLinearSpec(t *testing.T) {
	const seeds = 240
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed * 7919))
		d := specDataset(rng, seed)
		s := d.Schema
		w := NewWorker(Spec{Name: "w", Knowledge: 0.2 + 0.8*rng.Float64(), Seed: seed}, d)
		kc0 := s.KeyColumns()[0]
		for probe := 0; probe < 80; probe++ {
			v := specProbe(rng, d)
			taken := map[string]bool{}
			for n := rng.Intn(1 + len(d.Rows)/2); n > 0; n-- {
				taken[d.Rows[rng.Intn(len(d.Rows))][kc0].Val] = true
			}
			at := fmt.Sprintf("seed %d probe %d %v", seed, probe, v)
			if got, want := w.lookupKnown(v), linearLookup(s, w.known, v); !sameRow(got, want) {
				t.Fatalf("%s: lookupKnown = %v, scan says %v", at, got, want)
			}
			facts := w.lookupFacts(v)
			if got, want := w.matchKnownFresh(v, facts.cands, taken), linearMatchFresh(s, w.known, v, taken); !sameRow(got, want) {
				t.Fatalf("%s: matchKnownFresh = %v, scan says %v", at, got, want)
			}
			if got, want := facts.conflict, linearConflicts(s, w.known, v); got != want {
				t.Fatalf("%s: lookupFacts conflict = %v, scan says %v", at, got, want)
			}
			if got, want := w.truthSupports(v), linearSupports(d.Rows, v); got != want {
				t.Fatalf("%s: truthSupports = %v, scan says %v", at, got, want)
			}
			if got, want := d.LookupByKey(v), linearLookup(s, d.Rows, v); !sameRow(got, want) {
				t.Fatalf("%s: LookupByKey = %v, scan says %v", at, got, want)
			}
			if got, want := d.Contains(v), linearContains(d.Rows, v); got != want {
				t.Fatalf("%s: Contains = %v, scan says %v", at, got, want)
			}
		}
	}
}

// TestLookupKeyIncompleteIsNil pins the lookup contract: a vector whose key
// is incomplete names no entity, so neither the truth nor a worker's
// knowledge resolves it — not even to a row consistent with the part of the
// key that is set, which is what the scans used to return.
func TestLookupKeyIncompleteIsNil(t *testing.T) {
	d := SoccerPlayers(42, 60)
	w := NewWorker(Spec{Name: "w", Knowledge: 1, Seed: 1}, d)
	truth := d.Rows[5]
	nameOnly := model.NewVector(len(truth))
	nameOnly[0] = truth[0]
	withAttrs := nameOnly.With(3, truth[3].Val)
	for _, v := range []model.Vector{nameOnly, withAttrs, model.NewVector(len(truth))} {
		if got := d.LookupByKey(v); got != nil {
			t.Fatalf("LookupByKey(%v) = %v, want nil for an incomplete key", v, got)
		}
		if got := w.lookupKnown(v); got != nil {
			t.Fatalf("lookupKnown(%v) = %v, want nil for an incomplete key", v, got)
		}
		if d.Contains(v) {
			t.Fatalf("Contains(%v) on a partial vector", v)
		}
	}
	keyed := nameOnly.With(1, truth[1].Val)
	if got := d.LookupByKey(keyed); !sameRow(got, truth) {
		t.Fatalf("LookupByKey(%v) = %v, want %v", keyed, got, truth)
	}
}

// TestLookupDuplicateKeyFirstWins: generated truths are key-unique, but a
// Dataset is a plain literal anyone can build; if it repeats a key, the
// first row holding it answers, as it did when lookups scanned Rows.
func TestLookupDuplicateKeyFirstWins(t *testing.T) {
	s := SoccerSchema()
	first := model.VectorOf("Lionel Mesta", "Argentina", "FW", "83", "37", "1987-06-24")
	other := model.VectorOf("Diego Maradol", "Argentina", "MF", "91", "34", "1960-10-30")
	second := model.VectorOf("Lionel Mesta", "Argentina", "MF", "99", "1", "1990-01-01")
	d := &Dataset{Schema: s, Rows: []model.Vector{first, other, second}}
	key := model.VectorOf("Lionel Mesta", "Argentina", "", "", "", "")
	if got := d.LookupByKey(key); !sameRow(got, first) {
		t.Fatalf("LookupByKey = %v, want the first row %v", got, first)
	}
	if !d.Contains(first) || !d.Contains(other) {
		t.Fatalf("Contains misses a first-of-its-key row")
	}
	// A worker who knows everything resolves the key to whichever of the two
	// comes first in their own (shuffled) order, and fills from that row.
	w := NewWorker(Spec{Name: "w", Knowledge: 1, Seed: 3}, d)
	if got, want := w.lookupKnown(key), linearLookup(s, w.known, key); !sameRow(got, want) {
		t.Fatalf("lookupKnown = %v, scan says %v", got, want)
	}
}
