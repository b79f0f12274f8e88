package replay_test

import (
	"encoding/json"
	"math"
	"testing"

	"crowdfill/internal/exp"
	"crowdfill/internal/model"
	"crowdfill/internal/pay"
	"crowdfill/internal/replay"
	"crowdfill/internal/sync"
)

// TestReplayReproducesRun is the audit guarantee: rebuilding a finished
// collection from its exported log reproduces the master replica
// byte-for-byte, the same final table, and the same compensation.
func TestReplayReproducesRun(t *testing.T) {
	res, err := exp.Run(exp.RepresentativeConfig(exp.DefaultSeed))
	if err != nil {
		t.Fatal(err)
	}
	core := res.Core
	data, err := json.Marshal(core.Log())
	if err != nil {
		t.Fatal(err)
	}
	var log replay.Log
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatal(err)
	}
	audit, err := replay.Run(replay.Input{
		Schema:   core.Master().Schema(),
		Score:    model.MajorityShortcut(3),
		Budget:   10,
		Scheme:   pay.DualWeighted,
		Trace:    log.Trace,
		CCLog:    log.CCLog,
		Start:    log.Start,
		JoinTime: log.JoinTime,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if audit.Replica.SnapshotText() != core.Master().SnapshotText() {
		t.Fatalf("rebuilt replica differs from the live master")
	}
	if len(audit.Final) != res.FinalRows {
		t.Fatalf("rebuilt final rows = %d, want %d", len(audit.Final), res.FinalRows)
	}
	for w, want := range res.Alloc.PerWorker {
		got := audit.Alloc.PerWorker[w]
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("worker %s pay %v, live run paid %v", w, got, want)
		}
	}
	if audit.Messages != len(core.Trace())+len(core.CCLog()) {
		t.Fatalf("messages = %d", audit.Messages)
	}
}

// TestReplayExactWithSameBaseline: feeding the exact join times and start
// reproduces compensation to the cent.
func TestReplayExactWithSameBaseline(t *testing.T) {
	res, err := exp.Run(exp.RepresentativeConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	core := res.Core
	rep, err := replay.Rebuild(core.Master().Schema(), core.Trace(), core.CCLog())
	if err != nil {
		t.Fatal(err)
	}
	final := model.FinalTable(rep.Table(), model.MajorityShortcut(3))
	alloc, err := pay.Compute(pay.Input{
		Schema:   core.Master().Schema(),
		Budget:   10,
		Scheme:   pay.DualWeighted,
		Final:    final,
		Trace:    core.Trace(),
		CCLog:    core.CCLog(),
		JoinTime: core.JoinTimes(),
		Start:    core.StartTime(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for w, want := range res.Alloc.PerWorker {
		if got := alloc.PerWorker[w]; math.Abs(got-want) > 1e-9 {
			t.Fatalf("worker %s pay %v != live %v", w, got, want)
		}
	}
}

func TestReplayErrors(t *testing.T) {
	if _, err := replay.Rebuild(nil, nil, nil); err == nil {
		t.Errorf("nil schema should fail")
	}
	s := model.MustSchema("T", []model.Column{{Name: "a"}}, "a")
	// Snapshot messages don't belong in traces.
	if _, err := replay.Rebuild(s, []sync.Message{{Type: sync.MsgSnapshot}}, nil); err == nil {
		t.Errorf("snapshot in trace should fail")
	}
	// A duplicate insert makes the replay inconsistent.
	bad := []sync.Message{
		{Type: sync.MsgInsert, Row: "x", TS: 1},
		{Type: sync.MsgInsert, Row: "x", TS: 2},
	}
	if _, err := replay.Rebuild(s, bad, nil); err == nil {
		t.Errorf("duplicate insert should fail")
	}
}

// TestReplaySchemeReinterpretation: an auditor can re-run the same trace
// under a different allocation scheme (the E4 experiment, offline).
func TestReplaySchemeReinterpretation(t *testing.T) {
	res, err := exp.Run(exp.RepresentativeConfig(exp.DefaultSeed))
	if err != nil {
		t.Fatal(err)
	}
	core := res.Core
	uni, err := replay.Run(replay.Input{
		Schema:   core.Master().Schema(),
		Score:    model.MajorityShortcut(3),
		Budget:   10,
		Scheme:   pay.Uniform,
		Trace:    core.Trace(),
		CCLog:    core.CCLog(),
		JoinTime: core.JoinTimes(),
	})
	if err != nil {
		t.Fatal(err)
	}
	liveUni, err := core.ComputePayWith(pay.Uniform)
	if err != nil {
		t.Fatal(err)
	}
	for w, want := range liveUni.PerWorker {
		if got := uni.Alloc.PerWorker[w]; math.Abs(got-want) > 1e-9 {
			t.Fatalf("uniform reinterpretation differs for %s: %v vs %v", w, got, want)
		}
	}
}
