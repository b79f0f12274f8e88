package sync

import (
	"fmt"
	"sort"
	"strings"

	"crowdfill/internal/model"
)

// VoteHist is a vote history (UH or DH, paper §2.4): a map from value-vectors
// to the number of votes cast for exactly that vector. It keeps the decoded
// vector alongside each count so subset sums (Σ_{w⊆q} DH[w]) can be computed.
type VoteHist struct {
	m map[string]*histEntry
}

type histEntry struct {
	vec model.Vector
	n   int
}

// NewVoteHist returns an empty history.
func NewVoteHist() *VoteHist { return &VoteHist{m: make(map[string]*histEntry)} }

// Inc increments the count for vector v and returns the new count.
func (h *VoteHist) Inc(v model.Vector) int {
	e := h.entry(v)
	e.n++
	return e.n
}

// Dec decrements the count for vector v (the §8 undo extension) and returns
// the new count. Callers enforce that an undo follows a matching vote; the
// structure itself tolerates any count.
func (h *VoteHist) Dec(v model.Vector) int {
	e := h.entry(v)
	e.n--
	return e.n
}

// entry returns v's entry, creating it on first sight — the only time a key
// string is allocated; a repeat vote finds it through a stack-built key. A
// new entry shares v: vectors are immutable.
func (h *VoteHist) entry(v model.Vector) *histEntry {
	var buf [model.KeyScratch]byte
	k := v.AppendKey(buf[:0])
	e, ok := h.m[string(k)]
	if !ok {
		e = &histEntry{vec: v}
		h.m[string(k)] = e
	}
	return e
}

// Get returns the count for exactly vector v (0 if never voted).
//
//lint:hotpath
func (h *VoteHist) Get(v model.Vector) int {
	var buf [model.KeyScratch]byte
	if e, ok := h.m[string(v.AppendKey(buf[:0]))]; ok {
		return e.n
	}
	return 0
}

// SubsetSum returns Σ over entries w ⊆ v of their counts — the downvote count
// a newly-constructed row with value v must carry (paper §2.4).
func (h *VoteHist) SubsetSum(v model.Vector) int {
	total := 0
	for _, e := range h.m {
		if e.vec.Subset(v) {
			total += e.n
		}
	}
	return total
}

// Len returns the number of distinct voted vectors.
func (h *VoteHist) Len() int { return len(h.m) }

// Each calls fn for every (vector, count) entry.
func (h *VoteHist) Each(fn func(v model.Vector, n int)) {
	for _, e := range h.m {
		fn(e.vec, e.n)
	}
}

// Clone copies the history's counts; the entries' vectors are shared.
func (h *VoteHist) Clone() *VoteHist {
	out := NewVoteHist()
	for k, e := range h.m {
		out.m[k] = &histEntry{vec: e.vec, n: e.n}
	}
	return out
}

// Snapshot renders a canonical textual form (sorted), for replica comparison
// in convergence tests.
func (h *VoteHist) Snapshot() string {
	keys := make([]string, 0, len(h.m))
	for k := range h.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		// Zero-count entries (a vote fully undone) are canonically identical
		// to vectors never voted on.
		if h.m[k].n == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s=%d\n", k, h.m[k].n)
	}
	return b.String()
}

// export returns the wire form for snapshots, sharing the vectors.
func (h *VoteHist) export() (counts map[string]int, vecs map[string]model.Vector) {
	counts = make(map[string]int, len(h.m))
	vecs = make(map[string]model.Vector, len(h.m))
	for k, e := range h.m {
		counts[k] = e.n
		vecs[k] = e.vec
	}
	return counts, vecs
}

// importFrom loads the wire form produced by export, sharing the vectors
// and leaving both maps as they were.
func (h *VoteHist) importFrom(counts map[string]int, vecs map[string]model.Vector) {
	h.m = make(map[string]*histEntry, len(counts))
	for k, n := range counts {
		h.m[k] = &histEntry{vec: vecs[k], n: n}
	}
}
