package exp

import (
	"testing"

	"crowdfill/internal/sync"
)

// TestSimMetricsMatchTrace cross-checks the representative run's metrics
// snapshot against its trace: the simulation reports through the same
// instrument set as the live server, so the counters must agree exactly
// with the ground truth the deterministic run provides.
func TestSimMetricsMatchTrace(t *testing.T) {
	res := representative(t)
	if res.Metrics == nil || res.Recorder == nil {
		t.Fatalf("run has no metrics registry/recorder")
	}
	snap := res.Metrics.Snapshot()

	counter := func(name string) uint64 {
		for _, c := range snap.Counters {
			if c.Name == name {
				return c.Value
			}
		}
		return 0
	}
	histCount := func(name string) uint64 {
		for _, h := range snap.Histograms {
			if h.Name == name {
				return h.Count
			}
		}
		return 0
	}

	// Per-type message counters must match the trace exactly.
	trace := res.Core.Trace()
	byType := make(map[sync.MsgType]uint64)
	for _, m := range trace {
		byType[m.Type]++
	}
	for typ, want := range byType {
		name := `crowdfill_core_msgs_total{type="` + typ.String() + `"}`
		if got := counter(name); got != want {
			t.Errorf("%s = %d, want %d (trace)", name, got, want)
		}
	}
	if len(byType) == 0 {
		t.Fatalf("empty trace — run produced no worker messages")
	}

	// One convergence loop per handled message, plus the §4.2 init repair.
	want := uint64(len(trace)) + 1
	if got := histCount("crowdfill_repair_ns"); got != want {
		t.Errorf("crowdfill_repair_ns count = %d, want %d (trace+init)", got, want)
	}

	// Every handled message makes exactly one estimate-broadcast decision.
	estDecisions := counter("crowdfill_estimate_bcasts_total") + counter("crowdfill_estimate_skipped_total")
	if estDecisions != uint64(len(trace)) {
		t.Errorf("estimate decisions = %d, want %d (one per handled message)", estDecisions, len(trace))
	}
	// The coalescing must actually suppress something on this workload.
	if counter("crowdfill_estimate_skipped_total") == 0 {
		t.Errorf("no estimate broadcasts were suppressed — coalescing not exercised")
	}

	// A clean simulated run drops no clients and overruns no repairs.
	for _, cause := range []string{"cursor-lag", "send-error", "write-deadline", "handler-reject"} {
		name := `crowdfill_client_drops_total{cause="` + cause + `"}`
		if got := counter(name); got != 0 {
			t.Errorf("%s = %d, want 0", name, got)
		}
	}
	if got := counter("crowdfill_repair_overruns_total"); got != 0 {
		t.Errorf("repair overruns = %d, want 0", got)
	}
	if got := res.Recorder.Total(); got != 0 {
		t.Errorf("flight recorder has %d events on a clean run: %+v", got, res.Recorder.Events())
	}

	// The run-long RepairStats gauges mirror the core's final counters.
	gauge := func(name string) int64 {
		for _, g := range snap.Gauges {
			if g.Name == name {
				return g.Value
			}
		}
		return -1
	}
	rs := res.Core.RepairStats()
	if got := gauge("crowdfill_repair_calls"); got != int64(rs.Repairs) {
		t.Errorf("crowdfill_repair_calls = %d, want %d", got, rs.Repairs)
	}
	if got := gauge("crowdfill_repair_inserts"); got != int64(rs.Inserts) {
		t.Errorf("crowdfill_repair_inserts = %d, want %d", got, rs.Inserts)
	}
	// All clients left? No: the sim never removes clients, so the gauge
	// still reports the full crowd.
	if got := gauge("crowdfill_core_clients"); got != int64(res.Core.Status().Clients) {
		t.Errorf("crowdfill_core_clients = %d, want %d", got, res.Core.Status().Clients)
	}
}
