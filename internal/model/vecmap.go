package model

import "hash/maphash"

// VecMap maps a vector's value to a V. It is keyed by a 64-bit hash of the
// cells, not by a key string: a lookup hashes the cells where they lie, and a
// new entry costs no string. Two vectors are the same key exactly when
// Vector.Equal says so.
//
// The map stores the vector it was given with a new entry and shares it:
// vectors are immutable. Entries live under their hash in a Go map, stored by
// value; distinct vectors that share a hash chain behind the first, and are
// never merged. So an insert allocates nothing of its own but a chain node on
// a real collision, which the per-process seed makes as rare as chance.
//
// A VecMap is not safe for concurrent use.
type VecMap[V any] struct {
	m map[uint64]vecEntry[V]
	n int
}

type vecEntry[V any] struct {
	vec  Vector
	val  V
	next *vecEntry[V] // the next vector with the same hash
}

// HashedVec is a vector together with its hash. A caller that reads an entry
// and then stores or deletes it hashes the vector once.
type HashedVec struct {
	vec Vector
	sum uint64
}

// vecSeed seeds the cell hash once per process, so a peer that chooses the
// values cannot choose which of them collide.
var vecSeed = maphash.MakeSeed()

// vecHashMask is all ones. A test that must push collision chains through
// code outside this package (sync's convergence theorem, through
// go:linkname) narrows it, so that a handful of hash values cover every
// vector; maps built before a change are invalid after it.
var vecHashMask = ^uint64(0)

// unsetCellHash stands in for an unset cell. A set cell's hash is seeded, so
// no value can be chosen to match it, whatever the unset cell's Val holds.
const unsetCellHash = 0x6a09e667f3bcc908

// Hashed returns v with its hash: the width, then each cell's seeded hash
// folded in position order. Each step of the fold is a bijection of the
// running hash, so two vectors of one width that differ in a single cell
// share a hash only when those two cells do.
//
//lint:hotpath
func (v Vector) Hashed() HashedVec {
	h := uint64(len(v))
	for _, c := range v {
		x := uint64(unsetCellHash)
		if c.Set {
			x = maphash.String(vecSeed, c.Val)
		}
		h = (h ^ x) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return HashedVec{vec: v, sum: h & vecHashMask}
}

// NewVecMap returns an empty map.
func NewVecMap[V any]() *VecMap[V] {
	return &VecMap[V]{m: make(map[uint64]vecEntry[V])}
}

// Len returns the number of entries.
func (m *VecMap[V]) Len() int { return m.n }

// Get returns the value stored for k's vector and whether there is one.
func (m *VecMap[V]) Get(k HashedVec) (V, bool) {
	if e, ok := m.m[k.sum]; ok {
		for p := &e; p != nil; p = p.next {
			if p.vec.Equal(k.vec) {
				return p.val, true
			}
		}
	}
	var zero V
	return zero, false
}

// Set stores val for k's vector. A new entry keeps k's vector; an existing
// one keeps the vector it was created with.
func (m *VecMap[V]) Set(k HashedVec, val V) {
	head, ok := m.m[k.sum]
	if !ok {
		m.m[k.sum] = vecEntry[V]{vec: k.vec, val: val}
		m.n++
		return
	}
	if head.vec.Equal(k.vec) {
		head.val = val
		m.m[k.sum] = head
		return
	}
	for p := head.next; p != nil; p = p.next {
		if p.vec.Equal(k.vec) {
			p.val = val
			return
		}
	}
	head.next = &vecEntry[V]{vec: k.vec, val: val, next: head.next} //lint:allow hotalloc a second vector under one hash chains a node; the seeded hash makes this chance, not traffic
	m.m[k.sum] = head
	m.n++
}

// Delete removes k's vector, if present.
func (m *VecMap[V]) Delete(k HashedVec) {
	head, ok := m.m[k.sum]
	if !ok {
		return
	}
	if head.vec.Equal(k.vec) {
		if head.next == nil {
			delete(m.m, k.sum)
		} else {
			m.m[k.sum] = *head.next
		}
		m.n--
		return
	}
	for prev := &head; prev.next != nil; prev = prev.next {
		if prev.next.vec.Equal(k.vec) {
			prev.next = prev.next.next
			m.m[k.sum] = head
			m.n--
			return
		}
	}
}

// Each calls fn for every entry in unspecified order; fn must not add or
// delete entries.
func (m *VecMap[V]) Each(fn func(Vector, V)) {
	for _, e := range m.m {
		for p := &e; p != nil; p = p.next {
			fn(p.vec, p.val)
		}
	}
}

// Clone copies the map's entries; the copies share the vectors.
func (m *VecMap[V]) Clone() *VecMap[V] {
	out := &VecMap[V]{m: make(map[uint64]vecEntry[V], len(m.m)), n: m.n}
	for h, e := range m.m {
		for p := &e; p.next != nil; p = p.next {
			next := *p.next
			p.next = &next
		}
		out.m[h] = e
	}
	return out
}
