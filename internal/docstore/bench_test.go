package docstore

import "testing"

func BenchmarkInsert(b *testing.B) {
	s, _ := Open("") // memory-only: measures the data structure, not fsync
	c := s.Collection("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Insert(map[string]any{"name": "x", "n": i}); err != nil {
			b.Fatal(err)
		}
	}
}
