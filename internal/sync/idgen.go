package sync

import (
	"fmt"

	"crowdfill/internal/model"
)

// IDGen mints globally-unique row identifiers for insert and fill operations
// (paper §2.4 assumes fills generate globally-unique ids for the rows they
// construct). Uniqueness comes from a per-client prefix plus a counter; the
// fixed-width counter keeps ids lexicographically ordered per origin, which
// the deterministic tie-breaks rely on.
type IDGen struct {
	prefix string
	n      int64
}

// NewIDGen returns a generator whose ids are "<prefix>-<counter>".
func NewIDGen(prefix string) *IDGen { return &IDGen{prefix: prefix} }

// Next returns a fresh row id.
func (g *IDGen) Next() model.RowID {
	g.n++
	return model.RowID(fmt.Sprintf("%s-%08d", g.prefix, g.n))
}
