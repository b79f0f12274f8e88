package constraint

// Matching is the result of a maximum bipartite matching between template
// rows (left vertices) and probable rows (right vertices).
type Matching struct {
	// Left[t] is the right-vertex index matched to left vertex t, or -1.
	Left []int
	// Right[p] is the left-vertex index matched to right vertex p, or -1.
	Right []int
	// Size is the number of matched pairs.
	Size int

	// seen is the augmenting search's visited-marks scratch, epoch-stamped
	// so repeated Augment calls neither allocate nor clear it: seen[p] ==
	// epoch means right vertex p was visited by the current search. It only
	// grows (and only reallocates when the right side outgrows it).
	seen  []uint64
	epoch uint64
}

// MaxMatching computes a maximum bipartite matching by repeated augmenting
// path search (Berge's theorem: a matching is maximum iff it admits no
// augmenting path). adj[t] lists the right-vertex indexes adjacent to left
// vertex t; nRight is the number of right vertices.
func MaxMatching(adj [][]int, nRight int) Matching {
	m := Matching{
		Left:  make([]int, len(adj)),
		Right: make([]int, nRight),
	}
	for i := range m.Left {
		m.Left[i] = -1
	}
	for i := range m.Right {
		m.Right[i] = -1
	}
	for t := range adj {
		if m.Augment(adj, t) {
			m.Size++
		}
	}
	return m
}

// Augment searches for an augmenting path from free left vertex t (the
// paper's BFS from a free template row, §4.2 — implemented as the standard
// alternating-path search) and flips it into the matching if found.
// Returns whether the matching grew.
func (m *Matching) Augment(adj [][]int, t int) bool {
	if len(m.seen) < len(m.Right) {
		m.seen = make([]uint64, len(m.Right))
	}
	m.epoch++
	return m.tryKuhn(adj, t)
}

func (m *Matching) tryKuhn(adj [][]int, t int) bool {
	for _, p := range adj[t] {
		if m.seen[p] == m.epoch {
			continue
		}
		m.seen[p] = m.epoch
		if m.Right[p] == -1 || m.tryKuhn(adj, m.Right[p]) {
			m.Right[p] = t
			m.Left[t] = p
			return true
		}
	}
	return false
}
