package model

import (
	"strings"
	"testing"
	"testing/quick"
)

// paperCandidate builds the example candidate table from §2.2 of the paper.
func paperCandidate(t testing.TB) *Candidate {
	t.Helper()
	s := soccerSchema(t)
	c := NewCandidate(s)
	rows := []struct {
		id       string
		vec      Vector
		up, down int
	}{
		{"r-01", VectorOf("Lionel Messi", "Argentina", "FW", "83", "37"), 2, 0},
		{"r-02", VectorOf("Ronaldinho", "Brazil", "MF", "97", "33"), 3, 0},
		{"r-03", VectorOf("Ronaldinho", "Brazil", "FW", "97", "33"), 2, 1},
		{"r-04", VectorOf("Iker Casillas", "Spain", "GK", "150", "0"), 2, 0},
		{"r-05", VectorOf("David Beckham", "England", "MF", "115", "17"), 1, 0},
		{"r-06", VectorOf("Neymar", "Brazil", "FW", "", ""), 0, 1},
		{"r-07", VectorOf("Zinedine Zidane", "", "", "", ""), 0, 0},
		{"r-08", VectorOf("", "France", "DF", "", ""), 0, 0},
		{"r-09", NewVector(5), 0, 0},
		{"r-10", NewVector(5), 0, 0},
	}
	for _, r := range rows {
		c.Put(&Row{ID: RowID(r.id), Vec: r.vec, Up: r.up, Down: r.down})
	}
	return c
}

// TestFinalTablePaperExample checks the §2.2 derivation: Messi, Ronaldinho
// (the MF copy, higher score), and Casillas survive; Beckham has score zero
// (1 upvote under majority-of-3), incomplete rows are dropped.
func TestFinalTablePaperExample(t *testing.T) {
	c := paperCandidate(t)
	f := MajorityShortcut(3)
	final := FinalTable(c, f)
	if len(final) != 3 {
		t.Fatalf("final table has %d rows, want 3: %v", len(final), final)
	}
	want := map[string]Vector{
		"r-01": VectorOf("Lionel Messi", "Argentina", "FW", "83", "37"),
		"r-02": VectorOf("Ronaldinho", "Brazil", "MF", "97", "33"),
		"r-04": VectorOf("Iker Casillas", "Spain", "GK", "150", "0"),
	}
	for _, r := range final {
		w, ok := want[string(r.ID)]
		if !ok {
			t.Errorf("unexpected final row %v", r)
			continue
		}
		if !r.Vec.Equal(w) {
			t.Errorf("row %s = %v, want %v", r.ID, r.Vec, w)
		}
	}
}

func TestFinalTableKeyUniqueness(t *testing.T) {
	c := paperCandidate(t)
	final := FinalTable(c, MajorityShortcut(3))
	seen := map[string]bool{}
	for _, r := range final {
		k := r.Vec.KeyOf(c.Schema())
		if seen[k] {
			t.Fatalf("duplicate key in final table: %v", r)
		}
		seen[k] = true
	}
}

func TestFinalTableTieBreakDeterministic(t *testing.T) {
	s := MustSchema("T", []Column{{Name: "k"}, {Name: "v"}}, "k")
	c := NewCandidate(s)
	c.Put(&Row{ID: "b-1", Vec: VectorOf("x", "1"), Up: 2, Down: 0})
	c.Put(&Row{ID: "a-1", Vec: VectorOf("x", "2"), Up: 2, Down: 0})
	final := FinalTable(c, DefaultScore)
	if len(final) != 1 || final[0].ID != "a-1" {
		t.Fatalf("tie-break should pick lowest row id, got %v", final)
	}
}

func TestFinalTableDefaultScore(t *testing.T) {
	s := MustSchema("T", []Column{{Name: "k"}, {Name: "v"}}, "k")
	c := NewCandidate(s)
	c.Put(&Row{ID: "r-1", Vec: VectorOf("x", "1"), Up: 1, Down: 0})
	c.Put(&Row{ID: "r-2", Vec: VectorOf("y", "2"), Up: 1, Down: 1})
	c.Put(&Row{ID: "r-3", Vec: VectorOf("z", "3"), Up: 0, Down: 0})
	final := FinalTable(c, DefaultScore)
	// Only r-1 has positive score under u-d.
	if len(final) != 1 || final[0].ID != "r-1" {
		t.Fatalf("FinalTable = %v, want only r-1", final)
	}
}

func TestFinalVectors(t *testing.T) {
	c := paperCandidate(t)
	vecs := FinalVectors(c, MajorityShortcut(3))
	if len(vecs) != 3 {
		t.Fatalf("FinalVectors len = %d, want 3", len(vecs))
	}
	for _, v := range vecs {
		if !v.IsComplete() {
			t.Fatalf("final vector not complete: %v", v)
		}
	}
}

// TestFinalTablePropertyHighestScorePerKey: property check that for every
// final row no other complete candidate row with the same key scores higher.
func TestFinalTablePropertyHighestScorePerKey(t *testing.T) {
	s := MustSchema("T", []Column{{Name: "k", Type: TypeInt}, {Name: "v", Type: TypeInt}}, "k")
	f := func(seed int64) bool {
		c := NewCandidate(s)
		r := seed
		next := func(n int64) int64 {
			r = (r*6364136223846793005 + 1442695040888963407) % 1_000_003
			v := r % n
			if v < 0 {
				v = -v
			}
			return v
		}
		nrows := int(next(20)) + 1
		for i := 0; i < nrows; i++ {
			var vec Vector
			if next(5) == 0 {
				vec = VectorOf(itoa(next(4)), "") // incomplete
			} else {
				vec = VectorOf(itoa(next(4)), itoa(next(10)))
			}
			c.Put(&Row{ID: RowID(itoa(int64(i))), Vec: vec, Up: int(next(4)), Down: int(next(4))})
		}
		final := FinalTable(c, DefaultScore)
		for _, fr := range final {
			score := fr.Up - fr.Down
			if score <= 0 || !fr.Vec.IsComplete() {
				return false
			}
			ok := true
			c.Each(func(row *Row) {
				if row.Vec.IsComplete() && row.Vec.KeyOf(s) == fr.Vec.KeyOf(s) && row.Up-row.Down > score {
					ok = false
				}
			})
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func itoa(n int64) string {
	if n < 0 {
		n = -n
	}
	digits := "0123456789"
	if n == 0 {
		return "0"
	}
	var buf []byte
	for n > 0 {
		buf = append([]byte{digits[n%10]}, buf...)
		n /= 10
	}
	return string(buf)
}

func TestScoreFuncs(t *testing.T) {
	if err := ValidateScore(DefaultScore, 6); err != nil {
		t.Errorf("DefaultScore invalid: %v", err)
	}
	m3 := MajorityShortcut(3)
	if err := ValidateScore(m3, 6); err != nil {
		t.Errorf("MajorityShortcut(3) invalid: %v", err)
	}
	cases := []struct{ u, d, want int }{
		{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, // fewer than 2 votes -> 0
		{2, 0, 2}, {1, 1, 0}, {0, 2, -2}, {3, 1, 2},
	}
	for _, tc := range cases {
		if got := m3(tc.u, tc.d); got != tc.want {
			t.Errorf("m3(%d,%d) = %d, want %d", tc.u, tc.d, got, tc.want)
		}
	}
	if got := MinUpvotes(m3, 10); got != 2 {
		t.Errorf("MinUpvotes(m3) = %d, want 2", got)
	}
	if got := MinUpvotes(DefaultScore, 10); got != 1 {
		t.Errorf("MinUpvotes(default) = %d, want 1", got)
	}
	if got := MinUpvotes(func(u, d int) int { return 0 }, 5); got != 6 {
		t.Errorf("MinUpvotes(zero fn) = %d, want limit+1", got)
	}
	if err := ValidateScore(nil, 3); err == nil {
		t.Errorf("ValidateScore(nil) should fail")
	}
	if err := ValidateScore(func(u, d int) int { return 1 }, 3); err == nil {
		t.Errorf("ValidateScore(f(0,0)=1) should fail")
	}
	if err := ValidateScore(func(u, d int) int { return -u + d }, 3); err == nil {
		t.Errorf("ValidateScore(anti-monotone) should fail")
	}
	if got := MajorityShortcut(0)(1, 0); got != 1 {
		t.Errorf("MajorityShortcut(0) should clamp k to 1")
	}
}

func TestCandidateBasics(t *testing.T) {
	s := soccerSchema(t)
	c := NewCandidate(s)
	if c.Len() != 0 || c.Schema() != s {
		t.Fatalf("empty candidate wrong")
	}
	r := &Row{ID: "x-1", Vec: NewVector(5)}
	c.Put(r)
	if !c.Has("x-1") || c.Get("x-1") != r || c.Len() != 1 {
		t.Fatalf("Put/Get/Has wrong")
	}
	clone := c.Clone()
	c.Delete("x-1")
	if c.Has("x-1") || !clone.Has("x-1") {
		t.Fatalf("Delete/Clone aliasing wrong")
	}
	if clone.Get("x-1") == r {
		t.Fatalf("Clone must copy rows")
	}
}

func TestCandidateRowsSorted(t *testing.T) {
	s := soccerSchema(t)
	c := NewCandidate(s)
	for _, id := range []string{"c-1", "a-1", "b-1"} {
		c.Put(&Row{ID: RowID(id), Vec: NewVector(5)})
	}
	rows := c.Rows()
	if rows[0].ID != "a-1" || rows[1].ID != "b-1" || rows[2].ID != "c-1" {
		t.Fatalf("Rows not sorted: %v", rows)
	}
}

func TestCandidateSnapshotCanonical(t *testing.T) {
	s := soccerSchema(t)
	a, b := NewCandidate(s), NewCandidate(s)
	// Insert in different orders; snapshots must agree.
	rows := []*Row{
		{ID: "a-1", Vec: VectorOf("x", "", "", "", "")},
		{ID: "b-1", Vec: NewVector(5), Up: 1},
	}
	a.Put(rows[0].Clone())
	a.Put(rows[1].Clone())
	b.Put(rows[1].Clone())
	b.Put(rows[0].Clone())
	if a.Snapshot() != b.Snapshot() {
		t.Fatalf("snapshots differ:\n%s\nvs\n%s", a.Snapshot(), b.Snapshot())
	}
}

func TestRenderTable(t *testing.T) {
	c := paperCandidate(t)
	out := RenderTable(c.Schema(), c.Rows())
	if !strings.Contains(out, "Lionel Messi") || !strings.Contains(out, "↑") {
		t.Fatalf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != c.Len()+2 { // header + separator + rows
		t.Fatalf("render lines = %d, want %d:\n%s", len(lines), c.Len()+2, out)
	}
	// Empty cells print as the placeholder dot.
	if !strings.Contains(out, "·") {
		t.Fatalf("render missing empty-cell placeholder:\n%s", out)
	}
}

func TestRenderFinal(t *testing.T) {
	c := paperCandidate(t)
	out := RenderFinal(c.Schema(), FinalTable(c, MajorityShortcut(3)))
	if strings.Contains(out, "↑") {
		t.Fatalf("final render should omit vote columns:\n%s", out)
	}
	if !strings.Contains(out, "Iker Casillas") {
		t.Fatalf("final render missing row:\n%s", out)
	}
}

// TestValueIndexConsistency: the byValue index tracks Put/Delete including
// id-reuse with changed values.
func TestValueIndexConsistency(t *testing.T) {
	s := MustSchema("T", []Column{{Name: "a"}, {Name: "b"}}, "a")
	c := NewCandidate(s)
	v1 := VectorOf("x", "1")
	v2 := VectorOf("x", "2")
	c.Put(&Row{ID: "r-1", Vec: v1})
	c.Put(&Row{ID: "r-2", Vec: v1.Clone()})
	c.Put(&Row{ID: "r-3", Vec: v2})

	count := func(v Vector) int {
		n := 0
		c.EachWithValue(v, func(*Row) { n++ })
		return n
	}
	if got := count(v1); got != 2 {
		t.Fatalf("v1 bucket = %d, want 2", got)
	}
	if got := count(v2); got != 1 {
		t.Fatalf("v2 bucket = %d, want 1", got)
	}
	// Overwriting r-1 with a new vector moves it between buckets.
	c.Put(&Row{ID: "r-1", Vec: v2.Clone()})
	if got := count(v1); got != 1 {
		t.Fatalf("v1 bucket after overwrite = %d, want 1", got)
	}
	if got := count(v2); got != 2 {
		t.Fatalf("v2 bucket after overwrite = %d, want 2", got)
	}
	// Deletes clean the buckets up.
	c.Delete("r-1")
	c.Delete("r-3")
	if got := count(v2); got != 0 {
		t.Fatalf("v2 bucket after deletes = %d, want 0", got)
	}
	c.Delete("ghost") // no-op
	// Clones carry a working index too.
	clone := c.Clone()
	n := 0
	clone.EachWithValue(v1, func(*Row) { n++ })
	if n != 1 {
		t.Fatalf("clone v1 bucket = %d, want 1", n)
	}
}
