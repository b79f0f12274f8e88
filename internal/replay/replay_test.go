package replay_test

import (
	"encoding/json"
	"math"
	"testing"

	"crowdfill/internal/exp"
	"crowdfill/internal/model"
	"crowdfill/internal/pay"
	"crowdfill/internal/replay"
	"crowdfill/internal/server"
	"crowdfill/internal/sync"
)

// serverConfig is the server configuration a simulated run prices under.
func serverConfig(cfg exp.SimConfig) server.Config {
	return server.Config{
		Schema: cfg.Truth.Schema, Score: cfg.Score, Budget: cfg.Budget, Scheme: cfg.Scheme,
		SplitKey: cfg.SplitKey, SplitNonKey: cfg.SplitNonKey,
	}
}

// livePay is the reference an audit must reproduce: the allocation of the
// live master's final table over the core's own log, priced directly.
func livePay(t *testing.T, cfg server.Config, core *server.Core) *pay.Allocation {
	t.Helper()
	log := core.Log()
	alloc, err := pay.Compute(pay.Input{
		Schema: cfg.Schema, Budget: cfg.Budget, Scheme: cfg.Scheme, Final: core.FinalTable(),
		Trace: log.Trace, CCLog: log.CCLog, JoinTime: log.JoinTime, Start: log.Start,
		SplitKey: cfg.SplitKey, SplitNonKey: cfg.SplitNonKey,
	})
	if err != nil {
		t.Fatal(err)
	}
	return alloc
}

// samePay fails t unless got and want pay every worker and every message
// the same bits.
func samePay(t *testing.T, got, want *pay.Allocation) {
	t.Helper()
	if len(got.PerWorker) != len(want.PerWorker) || len(got.PerMessage) != len(want.PerMessage) {
		t.Fatalf("pays %d workers and %d messages, want %d and %d",
			len(got.PerWorker), len(got.PerMessage), len(want.PerWorker), len(want.PerMessage))
	}
	for w, amt := range want.PerWorker {
		if g := got.PerWorker[w]; math.Float64bits(g) != math.Float64bits(amt) {
			t.Fatalf("worker %s paid %v, want %v", w, g, amt)
		}
	}
	for i, amt := range want.PerMessage {
		if g := got.PerMessage[i]; math.Float64bits(g) != math.Float64bits(amt) {
			t.Fatalf("message %d paid %v, want %v", i, g, amt)
		}
	}
}

// TestReplayReproducesRun is the audit guarantee: rebuilding a finished
// collection from its exported log reproduces the master replica
// byte-for-byte and at its epoch (one step per applied message), the same
// final table, and the pay of the master's final table, bit for bit.
func TestReplayReproducesRun(t *testing.T) {
	sim := exp.RepresentativeConfig(exp.DefaultSeed)
	res, err := exp.Run(sim)
	if err != nil {
		t.Fatal(err)
	}
	core, cfg := res.Core, serverConfig(sim)
	data, err := json.Marshal(core.Log())
	if err != nil {
		t.Fatal(err)
	}
	var log replay.Log
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatal(err)
	}
	audit, err := server.Audit(cfg, log)
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	if audit.Replica.SnapshotText() != core.Master().SnapshotText() || audit.Replica.Epoch() != core.Master().Epoch() {
		t.Fatalf("rebuilt replica differs from the live master")
	}
	if len(audit.Final) != res.FinalRows {
		t.Fatalf("rebuilt final rows = %d, want %d", len(audit.Final), res.FinalRows)
	}
	samePay(t, audit.Alloc, livePay(t, cfg, core))
	if audit.Start != log.Start || len(audit.Trace) != len(log.Trace) || len(audit.CCLog) != len(log.CCLog) {
		t.Fatalf("audit priced from start %d over %d+%d messages, the log has %d and %d+%d",
			audit.Start, len(audit.Trace), len(audit.CCLog), log.Start, len(log.Trace), len(log.CCLog))
	}
}

// TestReplayExactWithSameBaseline: the run's own allocation, priced from
// its log with the log's start and join times, is the master's final
// table's pay to the bit.
func TestReplayExactWithSameBaseline(t *testing.T) {
	sim := exp.RepresentativeConfig(3)
	res, err := exp.Run(sim)
	if err != nil {
		t.Fatal(err)
	}
	samePay(t, res.Audit.Alloc, livePay(t, serverConfig(sim), res.Core))
}

// TestRebuildTieOrder pins how Rebuild orders a worker message and a
// Central Client message with the same timestamp, which a hand-built log
// may hold (the core never writes one): the worker message goes first. A
// row a worker inserts and the Central Client fills at the same instant
// rebuilds as the fill of that row; the other way round, the fill finds no
// row to replace and the insert then adds a second one.
func TestRebuildTieOrder(t *testing.T) {
	s := model.MustSchema("T", []model.Column{{Name: "a"}}, "a")
	scratch := sync.NewReplica(s)
	ins, err := scratch.Insert("x")
	if err != nil {
		t.Fatal(err)
	}
	fill, err := scratch.Fill("x", 0, "v", "y")
	if err != nil {
		t.Fatal(err)
	}
	ins.TS, fill.TS = 5, 5
	rep, err := replay.Rebuild(s, []sync.Message{ins}, []sync.Message{fill})
	if err != nil {
		t.Fatalf("worker insert then CC fill at one timestamp: %v", err)
	}
	if rep.SnapshotText() != scratch.SnapshotText() {
		t.Fatalf("tie rebuilt as\n%s\nwant\n%s", rep.SnapshotText(), scratch.SnapshotText())
	}
	rev, err := replay.Rebuild(s, []sync.Message{fill}, []sync.Message{ins})
	if err != nil {
		t.Fatal(err)
	}
	if rev.Table().Len() != 2 {
		t.Fatalf("worker fill before the tied CC insert left %d rows, want 2", rev.Table().Len())
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
// under a different allocation scheme (the E4 experiment, offline), and
// repricing the rebuilt table (Price) is the same as auditing again under
// that scheme.
func TestReplaySchemeReinterpretation(t *testing.T) {
	sim := exp.RepresentativeConfig(exp.DefaultSeed)
	res, err := exp.Run(sim)
	if err != nil {
		t.Fatal(err)
	}
	log := res.Core.Log()
	for _, scheme := range []pay.Scheme{pay.Uniform, pay.ColumnWeighted, pay.DualWeighted} {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := serverConfig(sim)
			cfg.Scheme = scheme
			fresh, err := server.Audit(cfg, log)
			if err != nil {
				t.Fatal(err)
			}
			samePay(t, fresh.Alloc, livePay(t, cfg, res.Core))
			priced, err := res.Audit.Price(scheme)
			if err != nil {
				t.Fatal(err)
			}
			samePay(t, priced, fresh.Alloc)
			if priced.Scheme != scheme || priced.Allocated != fresh.Alloc.Allocated {
				t.Fatalf("Price(%v) allocated %v under %v, a fresh audit %v", scheme, priced.Allocated, priced.Scheme, fresh.Alloc.Allocated)
			}
		})
	}
}

// TestLogJSON: a written log carries its start, also a start of 0, and
// reads back as written; a log with no "start" key, as written before the
// start was recorded, starts at its first Central Client message, or at
// its first worker message when it has none.
func TestLogJSON(t *testing.T) {
	msg := func(ts int64) []sync.Message { return []sync.Message{{Type: sync.MsgInsert, Row: "r", TS: ts}} }
	for _, tc := range []struct {
		doc  string
		want int64
	}{
		{`{"trace":[{"type":1,"row":"w","ts":7}],"ccLog":[{"type":1,"row":"c","ts":3}],"start":0}`, 0},
		{`{"trace":[{"type":1,"row":"w","ts":7}],"ccLog":[{"type":1,"row":"c","ts":3}]}`, 3},
		{`{"trace":[{"type":1,"row":"w","ts":7}],"ccLog":[]}`, 7},
		{`{"trace":[],"ccLog":[]}`, 0},
	} {
		var log replay.Log
		if err := json.Unmarshal([]byte(tc.doc), &log); err != nil {
			t.Fatalf("%s: %v", tc.doc, err)
		}
		if log.Start != tc.want {
			t.Errorf("%s: start %d, want %d", tc.doc, log.Start, tc.want)
		}
	}
	data, err := json.Marshal(replay.Log{Trace: msg(4), CCLog: msg(2), JoinTime: map[string]int64{"w": 1}})
	if err != nil {
		t.Fatal(err)
	}
	var back replay.Log
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Start != 0 || back.JoinTime["w"] != 1 || len(back.Trace) != 1 || len(back.CCLog) != 1 {
		t.Fatalf("%s read back as %+v", data, back)
	}
	if err := json.Unmarshal([]byte(`{"start":"x"}`), &back); err == nil {
		t.Fatal("a malformed log must fail to decode")
	}
}
