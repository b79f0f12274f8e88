package server_test

import (
	"math/rand"
	gosync "sync"
	"testing"
	"time"

	"crowdfill/internal/constraint"
	"crowdfill/internal/crowd"
	"crowdfill/internal/exp"
	"crowdfill/internal/metrics"
	"crowdfill/internal/server"
	"crowdfill/internal/sync"
)

// coreTrace is one simulated collection on a 200-row values + predicates
// template (40 rows pin a position or a nationality or bound caps or goals,
// 160 cardinality slots; 500-entity truth, the paper's five workers), kept
// as the server config that produced it and the stamped worker messages.
type coreTrace struct {
	cfg     server.Config
	workers []string
	msgs    []sync.Message
}

var (
	coreTraceOnce gosync.Once
	coreTraceVal  *coreTrace
	coreTraceErr  error
)

func loadCoreTrace() (*coreTrace, error) {
	coreTraceOnce.Do(func() {
		const seed = 1
		cfg := exp.RepresentativeConfig(seed)
		truth := crowd.SoccerPlayers(seed, 500)
		cfg.Truth = truth
		perm := rand.New(rand.NewSource(seed)).Perm(len(truth.Rows))
		const nationality, position, caps, goals = 1, 2, 3, 4
		rows := make([]constraint.TemplateRow, 40)
		for i := range rows {
			r := truth.Rows[perm[i]]
			tr := make(constraint.TemplateRow, truth.Schema.NumColumns())
			switch i % 4 {
			case 0:
				tr[position] = constraint.Eq(r[position].Val)
			case 1:
				tr[nationality] = constraint.Eq(r[nationality].Val)
			case 2:
				tr[caps] = constraint.Ge(r[caps].Val)
			case 3:
				tr[goals] = constraint.Ge(r[goals].Val)
			}
			rows[i] = tr
		}
		tmpl, err := constraint.PredTemplate(truth.Schema, rows...)
		if err != nil {
			coreTraceErr = err
			return
		}
		cfg.Template = tmpl.WithCardinality(200)
		cfg.MaxVirtual = 48 * time.Hour
		res, err := exp.Run(cfg)
		if err != nil {
			coreTraceErr = err
			return
		}
		ct := &coreTrace{
			cfg: server.Config{
				Schema: truth.Schema, Score: cfg.Score, Template: cfg.Template,
				Budget: cfg.Budget, Scheme: cfg.Scheme, MaxVotesPerRow: cfg.MaxVotesPerRow,
			},
			msgs: res.Core.Trace(),
		}
		for _, w := range cfg.Workers {
			ct.workers = append(ct.workers, w.Name)
		}
		coreTraceVal = ct
	})
	return coreTraceVal, coreTraceErr
}

// BenchmarkCoreHandle replays that trace into fresh cores, timing only
// Core.HandleBroadcast: ns/op and allocs/op are per handled message, averaged
// over the collection from its first message to the one that completes it
// (b.N messages, wrapping onto a fresh core at the end of the trace — use a
// -benchtime several traces long). Each replay must finish the collection,
// so the benchmark doubles as a check that the lazy completion check still
// fires. The repository benchmark holds the in-situ cost on table200 as the
// server.core_handle_p50_us ledger line.
func BenchmarkCoreHandle(b *testing.B) {
	ct, err := loadCoreTrace()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		b.StopTimer()
		cfg := ct.cfg
		cfg.Metrics = server.NewMetrics(metrics.NewRegistry(), metrics.NewRecorder(16))
		core, err := server.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range ct.workers {
			core.AddClient(w, w)
		}
		b.StartTimer()
		k := 0
		for ; k < len(ct.msgs) && i < b.N; k, i = k+1, i+1 {
			m := ct.msgs[k]
			if _, err := core.HandleBroadcast(m.Worker, m); err != nil {
				b.Fatalf("message %d: %v", k, err)
			}
		}
		if k == len(ct.msgs) && !core.Done() {
			b.Fatalf("replayed collection did not finish after %d messages", k)
		}
	}
	b.ReportMetric(float64(len(ct.msgs)), "msgs/trace")
}
