package sync

import (
	"fmt"
	"strings"

	"crowdfill/internal/model"
)

// VoteHist is a vote history (UH or DH, paper §2.4): a map from value-vectors
// to the number of votes cast for exactly that vector. Each entry keeps its
// vector so subset sums (Σ_{w⊆q} DH[w]) can be computed.
type VoteHist struct {
	m *model.VecMap[int]
}

// NewVoteHist returns an empty history.
func NewVoteHist() *VoteHist { return &VoteHist{m: model.NewVecMap[int]()} }

// Inc increments the count for vector v and returns the new count. A
// vector's first vote stores v itself: vectors are immutable.
func (h *VoteHist) Inc(v model.Vector) int { return h.add(v, 1) }

// Dec decrements the count for vector v (the §8 undo extension) and returns
// the new count. Callers enforce that an undo follows a matching vote; the
// structure itself tolerates any count.
func (h *VoteHist) Dec(v model.Vector) int { return h.add(v, -1) }

func (h *VoteHist) add(v model.Vector, d int) int {
	k := v.Hashed()
	n, _ := h.m.Get(k)
	n += d
	h.m.Set(k, n)
	return n
}

// Get returns the count for exactly vector v (0 if never voted).
//
//lint:hotpath
func (h *VoteHist) Get(v model.Vector) int {
	n, _ := h.m.Get(v.Hashed())
	return n
}

// SubsetSum returns Σ over entries w ⊆ v of their counts — the downvote count
// a newly-constructed row with value v must carry (paper §2.4).
func (h *VoteHist) SubsetSum(v model.Vector) int {
	total := 0
	h.m.Each(func(w model.Vector, n int) {
		if w.Subset(v) {
			total += n
		}
	})
	return total
}

// Len returns the number of distinct voted vectors.
func (h *VoteHist) Len() int { return h.m.Len() }

// Each calls fn for every (vector, count) entry.
func (h *VoteHist) Each(fn func(v model.Vector, n int)) { h.m.Each(fn) }

// Clone copies the history's counts; the entries' vectors are shared.
func (h *VoteHist) Clone() *VoteHist { return &VoteHist{m: h.m.Clone()} }

// Snapshot renders a canonical textual form (sorted by Vector.Encode), for
// replica comparison in convergence tests.
func (h *VoteHist) Snapshot() string {
	counts := make(map[string]int, h.m.Len())
	h.m.Each(func(v model.Vector, n int) {
		// Zero-count entries (a vote fully undone) are canonically identical
		// to vectors never voted on.
		if n != 0 {
			counts[v.Encode()] = n
		}
	})
	var b strings.Builder
	for _, k := range sortedKeysInt(counts) {
		fmt.Fprintf(&b, "%s=%d\n", k, counts[k])
	}
	return b.String()
}

// export returns the wire form for snapshots, keyed by Vector.Encode and
// sharing the vectors.
func (h *VoteHist) export() (counts map[string]int, vecs map[string]model.Vector) {
	counts = make(map[string]int, h.m.Len())
	vecs = make(map[string]model.Vector, h.m.Len())
	h.m.Each(func(v model.Vector, n int) {
		k := v.Encode()
		counts[k] = n
		vecs[k] = v
	})
	return counts, vecs
}

// importHist rebuilds a history's entries from the wire form export produces,
// sharing the vectors and leaving both maps as they were. Every key must
// carry a vector that encodes to it: a missing or mismatched vector is an
// error, never an entry under a guessed vector, so two keys cannot merge into
// one entry.
func importHist(counts map[string]int, vecs map[string]model.Vector) (*model.VecMap[int], error) {
	m := model.NewVecMap[int]()
	var buf [model.KeyScratch]byte
	for k, n := range counts {
		v, ok := vecs[k]
		if !ok {
			return nil, fmt.Errorf("history key %q has no vector", k)
		}
		if string(v.AppendKey(buf[:0])) != k {
			return nil, fmt.Errorf("history key %q carries vector %v, which does not encode to it", k, v)
		}
		m.Set(v.Hashed(), n)
	}
	return m, nil
}
