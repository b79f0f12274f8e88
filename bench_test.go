// Benchmarks regenerating every table and figure of the paper's §6
// evaluation (one benchmark per artifact; see DESIGN.md's experiment index
// and EXPERIMENTS.md for paper-vs-measured numbers), plus ablation
// benchmarks for the design choices the paper calls out. Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks report their headline values as custom metrics
// (virtual minutes, accuracy, MAPE, ...), so a bench run doubles as an
// experiment reproduction.
package crowdfill

import (
	"testing"

	"crowdfill/internal/crowd"
	"crowdfill/internal/exp"
	"crowdfill/internal/microtask"
	"crowdfill/internal/model"
	"crowdfill/internal/pay"
	gosync "sync"

	csync "crowdfill/internal/sync"
)

// repBench caches the representative run across benchmarks (they all analyze
// the same session, like the paper's E1-E4/Figure 5/Figure 6).
var (
	repBenchOnce gosync.Once
	repBenchRes  *exp.SimResult
	repBenchErr  error
)

func repBenchRun(b *testing.B) *exp.SimResult {
	b.Helper()
	repBenchOnce.Do(func() {
		repBenchRes, repBenchErr = exp.Run(exp.RepresentativeConfig(exp.DefaultSeed))
	})
	if repBenchErr != nil {
		b.Fatalf("representative run: %v", repBenchErr)
	}
	return repBenchRes
}

// BenchmarkE1OverallEffectiveness regenerates §6's in-text effectiveness
// table: a full five-worker collection of 20 soccer players per iteration.
func BenchmarkE1OverallEffectiveness(b *testing.B) {
	var last exp.E1Report
	for i := 0; i < b.N; i++ {
		res, err := exp.Run(exp.RepresentativeConfig(exp.DefaultSeed))
		if err != nil {
			b.Fatal(err)
		}
		last = exp.E1(res)
	}
	b.ReportMetric(last.Duration.Minutes(), "virtual-min")
	b.ReportMetric(float64(last.CandidateRows), "candidate-rows")
	b.ReportMetric(last.Accuracy*100, "accuracy-%")
}

// BenchmarkE2WorkerCompensation regenerates the per-worker dual-weighted
// compensation table over the representative trace.
func BenchmarkE2WorkerCompensation(b *testing.B) {
	res := repBenchRun(b)
	var r exp.E2Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alloc, err := res.Core.ComputePayWith(pay.DualWeighted)
		if err != nil {
			b.Fatal(err)
		}
		_ = alloc
	}
	r = exp.E2(res)
	lo, hi := r.Workers[0], r.Workers[len(r.Workers)-1]
	b.ReportMetric(lo.Actual, "min-pay-$")
	b.ReportMetric(hi.Actual, "max-pay-$")
}

// BenchmarkE3Figure5EstimationAccuracy regenerates Figure 5's MAPE values.
func BenchmarkE3Figure5EstimationAccuracy(b *testing.B) {
	res := repBenchRun(b)
	var r exp.E3Report
	for i := 0; i < b.N; i++ {
		r = exp.E3(res)
	}
	b.ReportMetric(r.MAPERaw, "mape-raw-%")
	b.ReportMetric(r.MAPECorrected, "mape-corrected-%")
}

// BenchmarkE4UniformComparison regenerates the in-text uniform-vs-dual
// comparison over the same trace.
func BenchmarkE4UniformComparison(b *testing.B) {
	res := repBenchRun(b)
	var r exp.E4Report
	for i := 0; i < b.N; i++ {
		var err error
		r, err = exp.E4(res)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.MaxRelDiff*100, "max-shift-%")
}

// BenchmarkE5EstimationMAPEByScheme regenerates the in-text ~3%/16%/25%
// MAPE-by-scheme comparison (many full simulations per iteration; slow).
func BenchmarkE5EstimationMAPEByScheme(b *testing.B) {
	var r exp.E5Report
	for i := 0; i < b.N; i++ {
		var err error
		r, err = exp.E5([]int64{21, 22})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.MAPE[0], "uniform-%")
	b.ReportMetric(r.MAPE[1], "column-%")
	b.ReportMetric(r.MAPE[2], "dual-%")
}

// BenchmarkE6Figure6EarningRates regenerates Figure 6's earning-rate curves
// and stability metrics.
func BenchmarkE6Figure6EarningRates(b *testing.B) {
	res := repBenchRun(b)
	var r exp.E6Report
	for i := 0; i < b.N; i++ {
		var err error
		r, err = exp.E6(res)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.StabilityWeighted[0], "wtd-deviation")
	b.ReportMetric(r.StabilityUniform[0], "uni-deviation")
}

// BenchmarkEXMicrotaskBaseline runs the §8 future-work comparison: the same
// crowd collecting the same table through microtasks.
func BenchmarkEXMicrotaskBaseline(b *testing.B) {
	cfg := exp.RepresentativeConfig(exp.DefaultSeed)
	var last *microtask.Result
	for i := 0; i < b.N; i++ {
		res, err := microtask.Run(microtask.Config{
			Truth:      cfg.Truth,
			Rows:       20,
			Workers:    cfg.Workers,
			PayPerTask: 0.05,
		}, exp.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Duration.Minutes(), "virtual-min")
	b.ReportMetric(float64(last.DuplicateKeys), "duplicate-keys")
	b.ReportMetric(last.Accuracy*100, "accuracy-%")
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ---

// BenchmarkAblationComputePay measures the full §5.2 compensation
// calculation over the representative trace, per scheme.
func BenchmarkAblationComputePay(b *testing.B) {
	res := repBenchRun(b)
	for _, scheme := range []pay.Scheme{pay.Uniform, pay.ColumnWeighted, pay.DualWeighted} {
		b.Run(scheme.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := res.Core.ComputePayWith(scheme); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationReplaceVsInPlace quantifies §2.4.1's key design choice:
// concurrent fills of different columns on the same row corrupt rows under
// naive in-place merging but never under CrowdFill's replace model.
func BenchmarkAblationReplaceVsInPlace(b *testing.B) {
	schema := model.MustSchema("T", []model.Column{{Name: "a"}, {Name: "b"}}, "a")
	corruptedInPlace, corruptedReplace := 0, 0
	trials := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Two clients fill different columns of the same empty row with
		// values from different intended entities.
		rep := csync.NewReplica(schema)
		rep.Apply(csync.Message{Type: csync.MsgInsert, Row: "cc-1"})
		m1 := csync.Message{Type: csync.MsgReplace, Row: "cc-1", NewRow: "c1-1",
			Vec: model.VectorOf("alice-key", ""), Col: 0, Val: "alice-key"}
		m2 := csync.Message{Type: csync.MsgReplace, Row: "cc-1", NewRow: "c2-1",
			Vec: model.VectorOf("", "bob-val"), Col: 1, Val: "bob-val"}
		rep.Apply(m1)
		rep.Apply(m2)
		// Replace model: both intents survive as separate rows.
		rep.Table().Each(func(r *model.Row) {
			if r.Vec[0].Set && r.Vec[1].Set {
				corruptedReplace++ // a merged row neither client intended
			}
		})
		// In-place emulation: the same two fills write into one row.
		merged := model.NewVector(2)
		merged[0] = model.Cell{Set: true, Val: "alice-key"}
		merged[1] = model.Cell{Set: true, Val: "bob-val"}
		if merged[0].Set && merged[1].Set {
			corruptedInPlace++
		}
		trials++
	}
	b.ReportMetric(float64(corruptedReplace)/float64(trials)*100, "replace-corrupt-%")
	b.ReportMetric(float64(corruptedInPlace)/float64(trials)*100, "inplace-corrupt-%")
}

// BenchmarkAblationSpammer measures the compensation scheme's spam
// resistance (§8's threat model): accuracy and the spammer's pay share.
func BenchmarkAblationSpammer(b *testing.B) {
	var res *exp.SimResult
	for i := 0; i < b.N; i++ {
		cfg := exp.RepresentativeConfig(3)
		cfg.Workers = append(cfg.Workers, crowd.Spec{Name: "spammer", Spammer: true, Seed: 999})
		var err error
		res, err = exp.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	var spamPay, totalPay float64
	for _, w := range res.Workers {
		totalPay += w.Actual
		if w.Name == "spammer" {
			spamPay = w.Actual
		}
	}
	b.ReportMetric(res.Accuracy*100, "accuracy-%")
	if totalPay > 0 {
		b.ReportMetric(spamPay/totalPay*100, "spam-pay-share-%")
	}
}
