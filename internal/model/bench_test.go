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

// BenchmarkVectorKey prices a vector's two keyings side by side. By string:
// the key an insert keeps (encode, one allocation), the stack-built key a
// lookup uses (append, none), and a read of a 201-entry map through it
// (lookup) — what primary-key maps still do. By hash: the cell hash (hash)
// and a read of a 201-entry VecMap through it (vecmap-lookup) — what the
// value index, the vote histories, the estimator's tallies and the client's
// vote record do. The lookup cases read with a copy of the stored vector,
// as a vote decoded on another link does.
func BenchmarkVectorKey(b *testing.B) {
	v := VectorOf("Lionel Messi", "Argentina", "FW", "83", "37")
	others := benchCandidate(200).Rows()
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
		m := map[string]int{v.Encode(): 1}
		for _, r := range others {
			m[r.Vec.Encode()] = 0
		}
		q := v.Clone()
		n := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var buf [KeyScratch]byte
			n += m[string(q.AppendKey(buf[:0]))]
		}
		if n != b.N {
			b.Fatalf("found %d of %d", n, b.N)
		}
	})
	b.Run("hash", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hashSink = v.Hashed()
		}
	})
	b.Run("vecmap-lookup", func(b *testing.B) {
		m := NewVecMap[int]()
		m.Set(v.Hashed(), 1)
		for _, r := range others {
			m.Set(r.Vec.Hashed(), 0)
		}
		q := v.Clone()
		n := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got, _ := m.Get(q.Hashed())
			n += got
		}
		if n != b.N {
			b.Fatalf("found %d of %d", n, b.N)
		}
	})
}

var hashSink HashedVec

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
