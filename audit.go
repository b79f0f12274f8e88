package crowdfill

import (
	"encoding/json"
	"fmt"

	"crowdfill/internal/replay"
	"crowdfill/internal/server"
	"crowdfill/internal/spec"
)

// ExportTrace serializes the collection's bookkeeping log (paper §3.3):
// every worker message and the Central Client's log in server order, the
// start and each worker's join time. The bytes round-trip through Audit and
// cmd/crowdfill-replay.
func (c *Collection) ExportTrace() ([]byte, error) {
	var log replay.Log
	c.ns.WithCore(func(core *server.Core) { log = core.Log() })
	return json.Marshal(log)
}

// ExportSimTrace serializes a simulation's bookkeeping log in the same
// format.
func ExportSimTrace(res *SimResult) ([]byte, error) {
	return json.Marshal(res.Core.Log())
}

// AuditResult is the outcome of replaying a trace offline.
type AuditResult struct {
	// Messages counts replayed messages (worker + Central Client).
	Messages int
	// CandidateRows and FinalRows describe the rebuilt end state.
	CandidateRows int
	FinalRows     int
	// Final holds the re-derived final table as rows of column values.
	Final [][]string
	// Pay is the recomputed per-worker compensation.
	Pay map[string]float64
	// Statements itemizes each worker's paid actions.
	Statements map[string]string
}

// Audit replays an exported trace against a spec and recomputes the final
// table and compensation — answering "why did worker X earn $Y" without the
// live system. Over a trace the collection exported, it pays exactly what
// the collection pays. scheme optionally overrides the spec's allocation
// scheme ("" keeps it).
func Audit(s Spec, traceJSON []byte, scheme string) (*AuditResult, error) {
	var log replay.Log
	if err := json.Unmarshal(traceJSON, &log); err != nil {
		return nil, fmt.Errorf("crowdfill: parse trace: %w", err)
	}
	if scheme != "" {
		s.Scheme = scheme
	}
	audit, err := spec.Audit(s, log)
	if err != nil {
		return nil, err
	}
	out := &AuditResult{
		Messages:      len(audit.Trace) + len(audit.CCLog),
		CandidateRows: audit.Replica.Table().Len(),
		FinalRows:     len(audit.Final),
		Pay:           audit.Alloc.PerWorker,
		Statements:    audit.Statements(),
	}
	for _, r := range audit.Final {
		out.Final = append(out.Final, r.Vec.Strings())
	}
	return out, nil
}
