package exp

import (
	"encoding/json"
	"math"
	"slices"
	"testing"

	"crowdfill/internal/pay"
	"crowdfill/internal/replay"
	"crowdfill/internal/server"
	"crowdfill/internal/sync"
)

// serverConfig is the configuration a run's log is priced under.
func serverConfig(cfg SimConfig) server.Config {
	return server.Config{
		Schema: cfg.Truth.Schema, Score: cfg.Score, Budget: cfg.Budget, Scheme: cfg.Scheme,
		SplitKey: cfg.SplitKey, SplitNonKey: cfg.SplitNonKey,
	}
}

// livePay is the reference an audit must reproduce: the allocation of the
// live master's final table over the core's own log, priced directly.
func livePay(t *testing.T, cfg SimConfig, core *server.Core) *pay.Allocation {
	t.Helper()
	log := core.Log()
	alloc, err := pay.Compute(pay.Input{
		Schema: cfg.Truth.Schema, Budget: cfg.Budget, Scheme: cfg.Scheme, Final: core.FinalTable(),
		Trace: log.Trace, CCLog: log.CCLog, JoinTime: log.JoinTime, Start: log.Start,
		SplitKey: cfg.SplitKey, SplitNonKey: cfg.SplitNonKey,
	})
	if err != nil {
		t.Fatal(err)
	}
	return alloc
}

// samePay reports the first worker or message that got and want pay
// differently, by their bits, or "" when they pay alike.
func samePay(got, want *pay.Allocation) string {
	if len(got.PerWorker) != len(want.PerWorker) || len(got.PerMessage) != len(want.PerMessage) {
		return "different workers or messages paid"
	}
	for w, amt := range want.PerWorker {
		if g := got.PerWorker[w]; math.Float64bits(g) != math.Float64bits(amt) {
			return w + " paid differently"
		}
	}
	for i, amt := range want.PerMessage {
		if math.Float64bits(got.PerMessage[i]) != math.Float64bits(amt) {
			return "a message paid differently"
		}
	}
	return ""
}

// TestZeroStartAuditPaysLive: a simulated run starts at virtual time 0,
// and its audit prices from that start. The audit of the core's log, and
// of the log's JSON round trip, pays what the master's final table pays,
// bit for bit, over 40 seeds under both weighted schemes. A start of 0 read
// as absent prices from the first Central Client stamp instead and pays 12
// of these 80 runs differently.
func TestZeroStartAuditPaysLive(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		for _, scheme := range []pay.Scheme{pay.DualWeighted, pay.ColumnWeighted} {
			cfg := RepresentativeConfig(seed)
			cfg.Scheme = scheme
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := livePay(t, cfg, res.Core)
			if res.Audit.Start != 0 {
				t.Errorf("seed %d %v: the audit starts at %d, want virtual time 0", seed, scheme, res.Audit.Start)
			}
			if diff := samePay(res.Audit.Alloc, want); diff != "" {
				t.Errorf("seed %d %v: audit of the core's log: %s", seed, scheme, diff)
			}
			data, err := json.Marshal(res.Core.Log())
			if err != nil {
				t.Fatal(err)
			}
			var log replay.Log
			if err := json.Unmarshal(data, &log); err != nil {
				t.Fatal(err)
			}
			audit, err := server.Audit(serverConfig(cfg), log)
			if err != nil {
				t.Fatal(err)
			}
			if diff := samePay(audit.Alloc, want); diff != "" {
				t.Errorf("seed %d %v: audit of the log's JSON: %s", seed, scheme, diff)
			}
		}
	}
}

// TestLogRebuildsMaster is what makes pricing from the log sound: on each
// golden configuration the replica rebuilt from the core's log is the
// master, byte for byte and at the same epoch, and the audit pays what the
// master's final table pays. The epoch counts applied messages: a replace
// of a row the log never inserted still adds its new row, so a log that
// lost a Central Client insert can rebuild the same rows.
func TestLogRebuildsMaster(t *testing.T) {
	for _, tc := range goldenCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, master := res.Audit.Replica, res.Core.Master()
			if rep.SnapshotText() != master.SnapshotText() || rep.Epoch() != master.Epoch() {
				t.Fatalf("replica rebuilt from the log (epoch %d) differs from the master (epoch %d)", rep.Epoch(), master.Epoch())
			}
			if diff := samePay(res.Audit.Alloc, livePay(t, cfg, res.Core)); diff != "" {
				t.Fatalf("audit: %s", diff)
			}
		})
	}
}

// TestLogStampsStrictlyIncrease: one counter stamps the worker trace and
// the Central Client log, so the merged log has no two equal timestamps
// and Rebuild's ordering of a tie never comes into play on a log the core
// wrote.
func TestLogStampsStrictlyIncrease(t *testing.T) {
	for _, tc := range goldenCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			if msg := strictlyIncreasing(res.Core.Log()); msg != "" {
				t.Fatal(msg)
			}
		})
	}
}

// strictlyIncreasing reports a tie or an out-of-order stamp in log, or ""
// when every stamp of the merged log is distinct, each part is in stamp
// order and every stamp comes after the start.
func strictlyIncreasing(log replay.Log) string {
	var all []int64
	for _, part := range [][]sync.Message{log.Trace, log.CCLog} {
		for i, m := range part {
			if i > 0 && m.TS <= part[i-1].TS || m.TS <= log.Start {
				return "a stamp out of order"
			}
			all = append(all, m.TS)
		}
	}
	slices.Sort(all)
	if len(slices.Compact(all)) != len(log.Trace)+len(log.CCLog) {
		return "two messages share a stamp"
	}
	return ""
}
