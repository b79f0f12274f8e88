package exp

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"crowdfill/internal/constraint"
	"crowdfill/internal/crowd"
	"crowdfill/internal/model"
	"crowdfill/internal/pay"
)

// DefaultSeed selects the default representative run. Chosen (like the
// paper's "representative run") as a typical, well-behaved session; other
// seeds vary in duration, churn, and estimate accuracy.
const DefaultSeed = 11

// RepresentativeConfig reproduces §6's representative run: five workers of
// varying diligence collecting 20 soccer players with caps in [80, 99] from
// an empty table, majority-of-3 scoring, a $10 budget, and dual-weighted
// allocation. The ground truth holds 220 players (the paper estimates >200
// eligible players), so key discovery never becomes the bottleneck — which
// is exactly why the paper observed no "slowdown" and dual-weighted equalled
// column-weighted allocation.
func RepresentativeConfig(seed int64) SimConfig {
	truth := crowd.SoccerPlayers(seed, 220)
	sec := func(n float64) time.Duration { return time.Duration(n * float64(time.Second)) }
	fillTimes := func(scale float64) []time.Duration {
		// name, nationality, position, caps, goals, dob — names and dates
		// take longer than picking a position.
		base := []float64{10, 6, 4, 7, 7, 12}
		out := make([]time.Duration, len(base))
		for i, b := range base {
			out[i] = sec(b * scale)
		}
		return out
	}
	workers := []crowd.Spec{
		{Name: "worker1", Knowledge: 0.85, FillAccuracy: 0.97, VoteAccuracy: 0.96,
			VotePreference: 0.55, ResearchProb: 0.4, ReconsiderProb: 0.15, FillTime: fillTimes(1.0), VoteTime: sec(3), Seed: seed*31 + 1},
		{Name: "worker2", Knowledge: 0.70, FillAccuracy: 0.95, VoteAccuracy: 0.95,
			VotePreference: 0.65, ResearchProb: 0.4, ReconsiderProb: 0.15, FillTime: fillTimes(1.3), VoteTime: sec(4), Seed: seed*31 + 2},
		{Name: "worker3", Knowledge: 0.60, FillAccuracy: 0.96, VoteAccuracy: 0.95,
			VotePreference: 0, ResearchProb: 0, FillTime: fillTimes(1.1), VoteTime: sec(4), Seed: seed*31 + 3},
		{Name: "worker4", Knowledge: 0.75, FillAccuracy: 0.93, VoteAccuracy: 0.94,
			VotePreference: 0.75, ResearchProb: 0.5, ReconsiderProb: 0.15, FillTime: fillTimes(1.6), VoteTime: sec(5), Seed: seed*31 + 4},
		{Name: "worker5", Knowledge: 0.15, FillAccuracy: 0.92, VoteAccuracy: 0.93,
			VotePreference: 0.6, ResearchProb: 0.3, ReconsiderProb: 0.1, FillTime: fillTimes(3.0), VoteTime: sec(8), Seed: seed*31 + 5},
	}
	return SimConfig{
		Truth:    truth,
		Template: constraint.Cardinality(truth.Schema, 20),
		Score:    model.MajorityShortcut(3),
		Budget:   10,
		Scheme:   pay.DualWeighted,
		Workers:  workers,
		// The paper's guard against excessive voting (§3.4).
		MaxVotesPerRow: 5,
	}
}

// E1Report is §6's "overall effectiveness" summary (in-text table).
type E1Report struct {
	Duration      time.Duration
	FinalRows     int
	CandidateRows int
	DownvotedRows int
	ExtraRows     int
	Accuracy      float64
	Done          bool
}

// E1 summarizes a representative run's overall effectiveness.
func E1(res *SimResult) E1Report {
	extra := res.CandidateRows - res.FinalRows - res.DownvotedRows
	if extra < 0 {
		extra = 0
	}
	return E1Report{
		Duration:      res.Duration.Round(time.Second),
		FinalRows:     res.FinalRows,
		CandidateRows: res.CandidateRows,
		DownvotedRows: res.DownvotedRows,
		ExtraRows:     extra,
		Accuracy:      res.Accuracy,
		Done:          res.Done,
	}
}

// String renders the report in the paper's style.
func (r E1Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E1  Overall effectiveness (representative run)\n")
	fmt.Fprintf(&b, "    collection time        %v\n", r.Duration)
	fmt.Fprintf(&b, "    final rows             %d\n", r.FinalRows)
	fmt.Fprintf(&b, "    candidate rows         %d\n", r.CandidateRows)
	fmt.Fprintf(&b, "    rows downvoted >=2x    %d\n", r.DownvotedRows)
	fmt.Fprintf(&b, "    extra rows (conflicts) %d\n", r.ExtraRows)
	fmt.Fprintf(&b, "    final-row accuracy     %.1f%%\n", r.Accuracy*100)
	return b.String()
}

// E2Report is §6's worker-compensation table under dual-weighted allocation.
type E2Report struct {
	Scheme  pay.Scheme
	Budget  float64
	Workers []WorkerReport // sorted by actual pay ascending
	ZKey    float64        // fitted z for the first key column
}

// E2 reports per-worker compensation from a run.
func E2(res *SimResult) E2Report {
	ws := append([]WorkerReport(nil), res.Workers...)
	sort.Slice(ws, func(i, j int) bool { return ws[i].Actual < ws[j].Actual })
	alloc := res.Audit.Alloc
	var z float64
	if len(alloc.Weights.Z) > 0 {
		z = alloc.Weights.Z[0]
	}
	return E2Report{Scheme: alloc.Scheme, Budget: 10, Workers: ws, ZKey: z}
}

// String renders the report.
func (r E2Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E2  Worker compensation (%s allocation)\n", r.Scheme)
	fmt.Fprintf(&b, "    %-10s %8s %8s %8s %8s %8s\n", "worker", "pay($)", "actions", "fills", "up", "down")
	for _, w := range r.Workers {
		fmt.Fprintf(&b, "    %-10s %8.2f %8d %8d %8d %8d\n",
			w.Name, w.Actual, w.Actions, w.Fills, w.Upvotes, w.Downvotes)
	}
	fmt.Fprintf(&b, "    fitted z (first key column): %.3f\n", r.ZKey)
	return b.String()
}

// E3Report is Figure 5: actual vs raw-estimated vs corrected-estimated
// compensation per worker.
type E3Report struct {
	Workers       []WorkerReport
	MAPERaw       float64
	MAPECorrected float64
}

// E3 compares estimates against actual compensation (Figure 5).
func E3(res *SimResult) E3Report {
	return E3Report{
		Workers:       res.Workers,
		MAPERaw:       pay.MAPE(Actuals(res.Workers), RawEstimates(res.Workers)),
		MAPECorrected: pay.MAPE(Actuals(res.Workers), CorrectedEstimates(res.Workers)),
	}
}

// String renders the report (the bar values of Figure 5).
func (r E3Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E3  Figure 5: accuracy of estimated compensation\n")
	fmt.Fprintf(&b, "    %-10s %10s %12s %14s\n", "worker", "actual($)", "estimate($)", "corrected($)")
	for _, w := range r.Workers {
		fmt.Fprintf(&b, "    %-10s %10.2f %12.2f %14.2f\n",
			w.Name, w.Actual, w.RawEstimate, w.CorrectedEstimate)
	}
	fmt.Fprintf(&b, "    MAPE raw %.1f%%   corrected %.1f%%   (paper: 16.1%% / 9.9%%)\n",
		r.MAPERaw, r.MAPECorrected)
	return b.String()
}

// E4Report compares dual-weighted against uniform allocation over the same
// trace (§6 "comparing allocation schemes").
type E4Report struct {
	Workers    []string
	Dual       []float64
	Uniform    []float64
	MaxRelDiff float64 // largest |uniform-dual|/dual (paper: >25% for the non-voter)
	MaxWorker  string
}

// E4 recomputes the run's compensation uniformly and reports the deltas.
func E4(res *SimResult) (E4Report, error) {
	uni, err := res.Audit.Price(pay.Uniform)
	if err != nil {
		return E4Report{}, err
	}
	r := E4Report{}
	for _, w := range res.Workers {
		r.Workers = append(r.Workers, w.Name)
		d := w.Actual
		u := uni.PerWorker[w.Name]
		r.Dual = append(r.Dual, d)
		r.Uniform = append(r.Uniform, u)
		if d > 0 {
			rel := (u - d) / d
			if rel < 0 {
				rel = -rel
			}
			if rel > r.MaxRelDiff {
				r.MaxRelDiff = rel
				r.MaxWorker = w.Name
			}
		}
	}
	return r, nil
}

// String renders the report.
func (r E4Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E4  Allocation scheme comparison on one trace\n")
	fmt.Fprintf(&b, "    %-10s %12s %12s %8s\n", "worker", "dual($)", "uniform($)", "diff%%")
	for i, w := range r.Workers {
		diff := 0.0
		if r.Dual[i] > 0 {
			diff = (r.Uniform[i] - r.Dual[i]) / r.Dual[i] * 100
		}
		fmt.Fprintf(&b, "    %-10s %12.2f %12.2f %7.1f%%\n", w, r.Dual[i], r.Uniform[i], diff)
	}
	fmt.Fprintf(&b, "    largest relative shift: %.1f%% (%s)  (paper: >25%% for the non-voting worker)\n",
		r.MaxRelDiff*100, r.MaxWorker)
	return b.String()
}

// E5Report is §6's estimation-accuracy-by-scheme comparison across many
// experiments (paper: ~3% uniform, ~16% column-weighted, ~25% dual-weighted).
type E5Report struct {
	Schemes []pay.Scheme
	MAPE    []float64 // mean raw MAPE per scheme
	Runs    int
}

// E5 runs several workloads under each allocation scheme and averages the
// raw estimation MAPE.
func E5(seeds []int64) (E5Report, error) {
	schemes := []pay.Scheme{pay.Uniform, pay.ColumnWeighted, pay.DualWeighted}
	report := E5Report{Schemes: schemes, MAPE: make([]float64, len(schemes))}
	counts := make([]int, len(schemes))
	for _, seed := range seeds {
		for _, mk := range []func(int64) SimConfig{soccerWorkload, productWorkload} {
			for si, scheme := range schemes {
				cfg := mk(seed)
				cfg.Scheme = scheme
				res, err := Run(cfg)
				if err != nil {
					return E5Report{}, err
				}
				if !res.Done {
					continue // a stalled run yields no final compensation
				}
				report.MAPE[si] += pay.MAPE(Actuals(res.Workers), RawEstimates(res.Workers))
				counts[si]++
				report.Runs++
			}
		}
	}
	for i := range report.MAPE {
		if counts[i] > 0 {
			report.MAPE[i] /= float64(counts[i])
		}
	}
	return report, nil
}

// soccerWorkload is a smaller, cleaner soccer run for the multi-run
// estimation experiments: diligent volunteers with high accuracy, like the
// paper's locally-recruited workers.
func soccerWorkload(seed int64) SimConfig {
	cfg := RepresentativeConfig(seed)
	cfg.Template = constraint.Cardinality(cfg.Truth.Schema, 12)
	cfg.Workers = cfg.Workers[:4]
	for i := range cfg.Workers {
		cfg.Workers[i].Knowledge = 0.85
		cfg.Workers[i].FillAccuracy = 0.99
		cfg.Workers[i].VoteAccuracy = 0.99
		cfg.Workers[i].ResearchProb = 0.9
		cfg.Workers[i].ReconsiderProb = 0.3
		if cfg.Workers[i].VotePreference > 0 {
			cfg.Workers[i].VotePreference = 0.5
		}
	}
	return cfg
}

// productWorkload varies the schema (a product catalog), per §6's "different
// schemas and workloads".
func productWorkload(seed int64) SimConfig {
	schema := model.MustSchema("Product", []model.Column{
		{Name: "sku", Type: model.TypeString},
		{Name: "category", Type: model.TypeString, Domain: []string{"audio", "video", "home", "toys"}},
		{Name: "price", Type: model.TypeFloat},
		{Name: "stock", Type: model.TypeInt},
	}, "sku")
	truth := crowd.Generic(seed+1000, schema, 120)
	sec := func(n float64) time.Duration { return time.Duration(n * float64(time.Second)) }
	workers := []crowd.Spec{
		{Name: "worker1", Knowledge: 0.9, FillAccuracy: 0.99, VoteAccuracy: 0.99, VotePreference: 0.5,
			ResearchProb: 0.9, ReconsiderProb: 0.3, FillTime: []time.Duration{sec(8), sec(4), sec(6), sec(5)}, VoteTime: sec(3), Seed: seed*17 + 1},
		{Name: "worker2", Knowledge: 0.85, FillAccuracy: 0.99, VoteAccuracy: 0.99, VotePreference: 0.6,
			ResearchProb: 0.9, ReconsiderProb: 0.3, FillTime: []time.Duration{sec(11), sec(5), sec(8), sec(6)}, VoteTime: sec(4), Seed: seed*17 + 2},
		{Name: "worker3", Knowledge: 0.8, FillAccuracy: 0.99, VoteAccuracy: 0.99, VotePreference: 0.7,
			ResearchProb: 0.9, ReconsiderProb: 0.3, FillTime: []time.Duration{sec(9), sec(5), sec(7), sec(6)}, VoteTime: sec(4), Seed: seed*17 + 3},
	}
	return SimConfig{
		Truth:          truth,
		Template:       constraint.Cardinality(schema, 10),
		Score:          model.MajorityShortcut(3),
		Budget:         8,
		Scheme:         pay.Uniform,
		Workers:        workers,
		MaxVotesPerRow: 5,
	}
}

// String renders the report.
func (r E5Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E5  Estimation MAPE by allocation scheme (%d runs)\n", r.Runs)
	for i, s := range r.Schemes {
		fmt.Fprintf(&b, "    %-16s %6.1f%%\n", s.String(), r.MAPE[i])
	}
	fmt.Fprintf(&b, "    (paper: ~3%% uniform, ~16%% column-weighted, ~25%% dual-weighted)\n")
	return b.String()
}

// E6Report is Figure 6: earning-rate curves for two representative workers
// under the run's weighted allocation and under uniform allocation.
type E6Report struct {
	Workers  [2]string
	Weighted [2][]CurvePoint
	Uniform  [2][]CurvePoint
	// Stability is the mean absolute deviation of each curve from the
	// steady-earning diagonal (lower = steadier earning rate).
	StabilityWeighted [2]float64
	StabilityUniform  [2]float64
	Duration          time.Duration
}

// E6 extracts earning-rate curves for the two busiest workers.
func E6(res *SimResult) (E6Report, error) {
	uni, err := res.Audit.Price(pay.Uniform)
	if err != nil {
		return E6Report{}, err
	}
	ws := append([]WorkerReport(nil), res.Workers...)
	sort.Slice(ws, func(i, j int) bool { return ws[i].Actions > ws[j].Actions })
	if len(ws) < 2 {
		return E6Report{}, fmt.Errorf("exp: E6 needs at least two workers")
	}
	r := E6Report{Duration: res.Duration}
	trace, start := res.Audit.Trace, res.Audit.Start
	for i := 0; i < 2; i++ {
		name := ws[i].Name
		r.Workers[i] = name
		r.Weighted[i] = EarningCurve(trace, res.Audit.Alloc.PerMessage, name, start)
		r.Uniform[i] = EarningCurve(trace, uni.PerMessage, name, start)
		r.StabilityWeighted[i] = curveDeviation(r.Weighted[i], res.Duration)
		r.StabilityUniform[i] = curveDeviation(r.Uniform[i], res.Duration)
	}
	return r, nil
}

// curveDeviation measures the mean absolute deviation of a cumulative
// earning curve from the perfectly steady diagonal earning rate.
func curveDeviation(curve []CurvePoint, total time.Duration) float64 {
	if len(curve) == 0 || total <= 0 {
		return 0
	}
	var sum float64
	for _, p := range curve {
		ideal := float64(p.T) / float64(total)
		d := p.Frac - ideal
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(len(curve))
}

// String renders the curves as sampled series (one row per 10% of run time).
func (r E6Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E6  Figure 6: earning rates, weighted vs uniform\n")
	fmt.Fprintf(&b, "    %-8s %10s %10s %10s %10s\n", "t/T",
		r.Workers[0]+" wtd", r.Workers[0]+" uni", r.Workers[1]+" wtd", r.Workers[1]+" uni")
	for step := 0; step <= 10; step++ {
		frac := float64(step) / 10
		t := time.Duration(float64(r.Duration) * frac)
		fmt.Fprintf(&b, "    %-8.1f %10.2f %10.2f %10.2f %10.2f\n", frac,
			sampleCurve(r.Weighted[0], t), sampleCurve(r.Uniform[0], t),
			sampleCurve(r.Weighted[1], t), sampleCurve(r.Uniform[1], t))
	}
	fmt.Fprintf(&b, "    deviation from steady rate: %s wtd %.3f uni %.3f | %s wtd %.3f uni %.3f\n",
		r.Workers[0], r.StabilityWeighted[0], r.StabilityUniform[0],
		r.Workers[1], r.StabilityWeighted[1], r.StabilityUniform[1])
	return b.String()
}

// sampleCurve returns the cumulative fraction earned at elapsed time t.
func sampleCurve(curve []CurvePoint, t time.Duration) float64 {
	frac := 0.0
	for _, p := range curve {
		if p.T > t {
			break
		}
		frac = p.Frac
	}
	return frac
}
