package crowdfill

import (
	"bytes"
	"testing"

	"crowdfill/internal/exp"
)

// TestSimTraceDeterministic runs the paper-representative simulation twice
// with the same seed and requires byte-identical exported traces: all time
// comes from the simulated clock and all randomness from the seeded source,
// so a trace is fully reproducible from its seed. TestSimTraceGolden pins
// fixed seeds' traces to committed digests across processes, and
// TestRepresentativeDeterminism holds the reports built from map iteration
// to one order.
func TestSimTraceDeterministic(t *testing.T) {
	const seed = 20140622 // SIGMOD'14

	run := func() []byte {
		res, err := exp.Run(exp.RepresentativeConfig(seed))
		if err != nil {
			t.Fatalf("sim run: %v", err)
		}
		data, err := ExportSimTrace(res)
		if err != nil {
			t.Fatalf("export trace: %v", err)
		}
		return data
	}

	first := run()
	second := run()
	if !bytes.Equal(first, second) {
		limit := 200
		if len(first) < limit {
			limit = len(first)
		}
		t.Fatalf("same-seed runs diverged: %d vs %d bytes\nfirst starts: %s",
			len(first), len(second), first[:limit])
	}
	if len(first) == 0 || bytes.Equal(first, []byte(`{"trace":null,"ccLog":null}`)) {
		t.Fatal("exported trace is empty; determinism check is vacuous")
	}
}
