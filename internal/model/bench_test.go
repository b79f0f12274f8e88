package model

import (
	"fmt"
	"testing"
)

// benchCandidate builds an n-row candidate table with ~10% incomplete rows.
func benchCandidate(n int) *Candidate {
	s := MustSchema("T", []Column{
		{Name: "k"}, {Name: "a"}, {Name: "b"}, {Name: "c"},
	}, "k")
	c := NewCandidate(s)
	for i := 0; i < n; i++ {
		vec := VectorOf(fmt.Sprintf("k%d", i), "x", "y", fmt.Sprint(i%7))
		if i%10 == 0 {
			vec[3] = Cell{}
		}
		c.Put(&Row{ID: RowID(fmt.Sprintf("r-%06d", i)), Vec: vec, Up: i % 4, Down: i % 3})
	}
	return c
}

func BenchmarkFinalTable(b *testing.B) {
	for _, n := range []int{20, 200, 2000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			c := benchCandidate(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				FinalTable(c, DefaultScore)
			}
		})
	}
}

// BenchmarkVectorKey prices the three ways a vector becomes a map key: the
// key string an insert keeps (Encode, one allocation), the stack-built key a
// lookup uses (AppendKey, none), and a value-index read through it.
func BenchmarkVectorKey(b *testing.B) {
	v := VectorOf("Lionel Messi", "Argentina", "FW", "83", "37")
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			keySink = v.Encode()
		}
	})
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var buf [KeyScratch]byte
		for i := 0; i < b.N; i++ {
			_ = v.AppendKey(buf[:0])
		}
	})
	b.Run("lookup", func(b *testing.B) {
		c := benchCandidate(200)
		c.Put(&Row{ID: "messi", Vec: v})
		n := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.EachWithValue(v, func(*Row) { n++ })
		}
		if n != b.N {
			b.Fatalf("visited %d rows in %d lookups", n, b.N)
		}
	})
}

func BenchmarkVectorSubset(b *testing.B) {
	full := VectorOf("Lionel Messi", "Argentina", "FW", "83", "37")
	sub := VectorOf("Lionel Messi", "", "FW", "", "")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sub.Subset(full) {
			b.Fatal("subset broken")
		}
	}
}

func BenchmarkRenderTable(b *testing.B) {
	c := benchCandidate(50)
	rows := c.Rows()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = RenderTable(c.Schema(), rows)
	}
}
