package crowdfill

import (
	"encoding/json"
	"net/http/httptest"
	"slices"
	"strings"
	gosync "sync"
	"testing"
	"time"

	"crowdfill/internal/model"
	"crowdfill/internal/pay"
	"crowdfill/internal/replay"
	"crowdfill/internal/server"
	"crowdfill/internal/sync"
)

// paperOnce caches the representative run for the report tests.
var (
	paperOnce gosync.Once
	paperRes  *SimResult
	paperErr  error
)

func paperRun(t *testing.T) *SimResult {
	t.Helper()
	paperOnce.Do(func() { paperRes, paperErr = SimulatePaper(PaperSeed) })
	if paperErr != nil {
		t.Fatal(paperErr)
	}
	return paperRes
}

func TestReportsRender(t *testing.T) {
	res := paperRun(t)
	cases := map[string]func() (string, error){
		"E1": func() (string, error) { return ReportOverallEffectiveness(res), nil },
		"E2": func() (string, error) { return ReportWorkerCompensation(res), nil },
		"E3": func() (string, error) { return ReportEstimationAccuracy(res), nil },
		"E4": func() (string, error) { return ReportSchemeComparison(res) },
		"E6": func() (string, error) { return ReportEarningRates(res) },
	}
	for name, fn := range cases {
		s, err := fn()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(s, name) || len(s) < 60 {
			t.Errorf("%s report looks wrong:\n%s", name, s)
		}
	}
}

func TestReportEstimationBySchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	s, err := ReportEstimationBySchemes([]int64{31})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "E5") || !strings.Contains(s, "uniform") {
		t.Fatalf("E5 report looks wrong:\n%s", s)
	}
}

// TestConnectWSOverHandler drives a tiny collection over real WebSockets
// through the public facade only.
func TestConnectWSOverHandler(t *testing.T) {
	s := kvSpec()
	s.Cardinality = 1
	coll, err := NewCollection(s)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	srv := httptest.NewServer(coll.Handler())
	defer srv.Close()
	url := "ws" + strings.TrimPrefix(srv.URL, "http")

	alice, err := ConnectWS(url, "alice", s)
	if err != nil {
		t.Fatalf("ConnectWS: %v", err)
	}
	defer alice.Close()
	bob, err := ConnectWS(url, "bob", s)
	if err != nil {
		t.Fatal(err)
	}
	defer bob.Close()
	if alice.ID() != "alice" {
		t.Fatalf("ID = %q", alice.ID())
	}

	waitFor(t, func() bool { return len(alice.Rows()) == 1 })
	fillRow(t, alice, "x", "1")
	waitFor(t, func() bool {
		for _, r := range bob.Rows() {
			if r.Complete {
				return bob.Upvote(r.ID) == nil
			}
		}
		return false
	})
	waitFor(t, func() bool { return coll.Done() && alice.Done() && bob.Done() })
	if rows := coll.Result(); len(rows) != 1 || rows[0][0] != "x" {
		t.Fatalf("result = %v", rows)
	}
}

func TestConnectWSErrors(t *testing.T) {
	if _, err := ConnectWS("ws://127.0.0.1:1", "w", kvSpec()); err == nil {
		t.Fatalf("refused dial should fail")
	}
	bad := kvSpec()
	bad.Columns = nil
	if _, err := ConnectWS("ws://127.0.0.1:1", "w", bad); err == nil {
		t.Fatalf("bad spec should fail before dialing")
	}
}

func TestSimulateOptionErrors(t *testing.T) {
	bad := kvSpec()
	bad.Budget = -1
	if _, err := Simulate(SimOptions{Spec: bad}); err == nil {
		t.Fatalf("bad spec should fail")
	}
	// SoccerTruth requires a matching column count.
	if _, err := Simulate(SimOptions{Spec: kvSpec(), SoccerTruth: true}); err == nil {
		t.Fatalf("SoccerTruth with 2-column schema should fail")
	}
}

func TestSimulateSoccerTruth(t *testing.T) {
	res, err := Simulate(SimOptions{
		Spec: Spec{
			Name: "SoccerPlayer",
			Columns: []Column{
				{Name: "name"}, {Name: "nationality"},
				{Name: "position", Domain: []string{"GK", "DF", "MF", "FW"}},
				{Name: "caps", Type: "int"}, {Name: "goals", Type: "int"},
				{Name: "dob", Type: "date"},
			},
			Key:         []string{"name", "nationality"},
			Scoring:     Scoring{Kind: "majority", K: 3},
			Cardinality: 6,
			Budget:      5,
			Scheme:      "uniform",
		},
		SoccerTruth: true,
		Seed:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || res.FinalRows < 6 {
		t.Fatalf("soccer-truth sim: %s", ResultSummary(res))
	}
}

func TestAuditRoundTrip(t *testing.T) {
	res := paperRun(t)
	trace, err := ExportSimTrace(res)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Name: "SoccerPlayer",
		Columns: []Column{
			{Name: "name"}, {Name: "nationality"},
			{Name: "position", Domain: []string{"GK", "DF", "MF", "FW"}},
			{Name: "caps", Type: "int"}, {Name: "goals", Type: "int"},
			{Name: "dob", Type: "date"},
		},
		Key:         []string{"name", "nationality"},
		Scoring:     Scoring{Kind: "majority", K: 3},
		Cardinality: 20,
		Budget:      10,
		Scheme:      "dual-weighted",
	}
	audit, err := Audit(spec, trace, "")
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	if audit.FinalRows != res.FinalRows {
		t.Fatalf("audit final rows = %d, want %d", audit.FinalRows, res.FinalRows)
	}
	for w, want := range res.Audit.Alloc.PerWorker {
		if got := audit.Pay[w]; got != want {
			t.Fatalf("audit pay for %s = %v, the run paid %v", w, got, want)
		}
		if st := audit.Statements[w]; !strings.Contains(st, "total") {
			t.Fatalf("statement for %s missing: %q", w, st)
		}
	}
	// Scheme reinterpretation changes the split but not the budget cap.
	uni, err := Audit(spec, trace, "uniform")
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, amt := range uni.Pay {
		sum += amt
	}
	if sum > 10+1e-9 {
		t.Fatalf("uniform audit exceeds budget: %v", sum)
	}
	// Error paths.
	if _, err := Audit(spec, []byte("{bad"), ""); err == nil {
		t.Fatalf("bad trace should fail")
	}
	if _, err := Audit(spec, trace, "lottery"); err == nil {
		t.Fatalf("bad scheme should fail")
	}
	bad := spec
	bad.Columns = nil
	if _, err := Audit(bad, trace, ""); err == nil {
		t.Fatalf("bad spec should fail")
	}
}

func TestCollectionExportTrace(t *testing.T) {
	s := kvSpec()
	s.Cardinality = 1
	coll, err := NewCollection(s)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	alice, err := coll.Connect("alice")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(alice.Rows()) == 1 })
	fillRow(t, alice, "x", "1")
	waitFor(t, func() bool {
		data, err := coll.ExportTrace()
		if err != nil {
			return false
		}
		audit, err := Audit(s, data, "")
		return err == nil && audit.Messages >= 3 // 1 CC insert + 2 fills (+ auto)
	})
}

// lateJoinCollection runs spec s to completion with two in-process workers,
// the second joining 250 ms after the first: alice fills row x, bob joins,
// fills row y, and each upvotes the other's row.
func lateJoinCollection(t *testing.T, s Spec) *Collection {
	t.Helper()
	coll, err := NewCollection(s)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coll.Close)
	alice, err := coll.Connect("alice")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(alice.Rows()) == 2 })
	fillRow(t, alice, "x", "1")
	time.Sleep(250 * time.Millisecond)
	bob, err := coll.Connect("bob")
	if err != nil {
		t.Fatal(err)
	}
	fillRow(t, bob, "y", "2")
	upvote := func(w *Worker, key string) {
		waitFor(t, func() bool {
			for _, r := range w.Rows() {
				if r.Complete && r.Cells[0] == key && w.Upvote(r.ID) == nil {
					return true
				}
			}
			return false
		})
	}
	upvote(bob, "x")
	upvote(alice, "y")
	waitFor(t, coll.Done)
	return coll
}

// liveState reads, under one hold of the serving lock, the master (its
// snapshot text and epoch), its final table and a copy of the log.
func liveState(coll *Collection) (master string, epoch uint64, final []*model.Row, log replay.Log) {
	coll.ns.WithCore(func(core *server.Core) {
		master, epoch = core.Master().SnapshotText(), core.Master().Epoch()
		final, log = core.FinalTable(), core.Log()
	})
	return master, epoch, final, log
}

// TestAuditReproducesLivePay: the exported log carries the start and every
// join time, and the spec carries the split factors, so auditing a live
// collection whose second worker joined late pays exactly what the
// master's final table pays, and so does the collection's ComputePay.
func TestAuditReproducesLivePay(t *testing.T) {
	s := kvSpec()
	s.Scheme = "dual-weighted"
	s.SplitKey, s.SplitNonKey = 0.9, 0.9
	coll := lateJoinCollection(t, s)
	cfg, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, _, final, log := liveState(coll)
	want, err := pay.Compute(pay.Input{
		Schema: cfg.Schema, Budget: cfg.Budget, Scheme: cfg.Scheme, Final: final,
		Trace: log.Trace, CCLog: log.CCLog, JoinTime: log.JoinTime, Start: log.Start,
		SplitKey: cfg.SplitKey, SplitNonKey: cfg.SplitNonKey,
	})
	if err != nil {
		t.Fatal(err)
	}
	live, err := coll.ComputePay()
	if err != nil {
		t.Fatal(err)
	}
	data, err := coll.ExportTrace()
	if err != nil {
		t.Fatal(err)
	}
	audit, err := Audit(s, data, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(want.PerWorker) != 2 || len(live) != 2 || len(audit.Pay) != 2 {
		t.Fatalf("pay = %v, ComputePay %v, audit %v: want alice and bob", want.PerWorker, live, audit.Pay)
	}
	for w, amt := range want.PerWorker {
		if live[w] != amt || audit.Pay[w] != amt {
			t.Errorf("%s: ComputePay %v, audit %v, the master's final table %v", w, live[w], audit.Pay[w], amt)
		}
	}
}

// TestLogRebuildsMaster: the replica rebuilt from a live collection's log
// is its master, byte for byte and at the same epoch (the count of applied
// messages).
func TestLogRebuildsMaster(t *testing.T) {
	s := kvSpec()
	coll := lateJoinCollection(t, s)
	cfg, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	master, epoch, _, log := liveState(coll)
	audit, err := server.Audit(cfg, log)
	if err != nil {
		t.Fatal(err)
	}
	if got := audit.Replica.SnapshotText(); got != master || audit.Replica.Epoch() != epoch {
		t.Fatalf("rebuilt replica at epoch %d\n%s\nmaster at epoch %d\n%s", audit.Replica.Epoch(), got, epoch, master)
	}
}

// TestLogStampsStrictlyIncrease: on the real clock too, one counter stamps
// worker and Central Client messages, so the merged log has no two equal
// timestamps, each part is in order, and every stamp follows the start.
func TestLogStampsStrictlyIncrease(t *testing.T) {
	_, _, _, log := liveState(lateJoinCollection(t, kvSpec()))
	var all []int64
	for _, part := range [][]sync.Message{log.Trace, log.CCLog} {
		for i, m := range part {
			if i > 0 && m.TS <= part[i-1].TS || m.TS <= log.Start {
				t.Fatalf("stamp %d out of order (start %d): %+v", m.TS, log.Start, part)
			}
			all = append(all, m.TS)
		}
	}
	slices.Sort(all)
	if len(slices.Compact(all)) != len(log.Trace)+len(log.CCLog) {
		t.Fatalf("two messages share a stamp: %v", all)
	}
}

// TestAuditLegacyTrace: a log without "start" and "joinTime", as exported
// before they were recorded, still audits, and pays what the audit paid
// then: the start taken from the first Central Client message, and every
// worker joined at it.
func TestAuditLegacyTrace(t *testing.T) {
	s := kvSpec()
	s.Scheme = "dual-weighted"
	data, err := lateJoinCollection(t, s).ExportTrace()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc["start"] == nil || doc["joinTime"] == nil {
		t.Fatalf("exported log lacks start or joinTime: %s", data)
	}
	var log replay.Log
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatal(err)
	}
	delete(doc, "start")
	delete(doc, "joinTime")
	legacy, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	audit, err := Audit(s, legacy, "")
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}

	cfg, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := replay.Rebuild(cfg.Schema, log.Trace, log.CCLog)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pay.Compute(pay.Input{
		Schema: cfg.Schema,
		Budget: cfg.Budget,
		Scheme: cfg.Scheme,
		Final:  model.FinalTable(rep.Table(), cfg.Score),
		Trace:  log.Trace,
		CCLog:  log.CCLog,
		Start:  log.CCLog[0].TS,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(audit.Pay) != 2 || len(want.PerWorker) != 2 {
		t.Fatalf("legacy audit pays %v, want %v", audit.Pay, want.PerWorker)
	}
	for w, amount := range want.PerWorker {
		if got := audit.Pay[w]; got != amount {
			t.Errorf("legacy audit pay for %s = %v, want %v", w, got, amount)
		}
	}
}
