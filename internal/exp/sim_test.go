package exp

import (
	"fmt"
	"slices"
	"strings"
	gosync "sync"
	"testing"
	"time"

	"crowdfill/internal/crowd"
	"crowdfill/internal/pay"
)

// repOnce caches the representative run: several tests inspect the same run,
// exactly like the paper derives E1–E4 and Figure 5/6 from one session.
var (
	repOnce sync_Once
	repRes  *SimResult
	repErr  error
)

type sync_Once = gosync.Once

func representative(t *testing.T) *SimResult {
	t.Helper()
	repOnce.Do(func() {
		repRes, repErr = Run(RepresentativeConfig(DefaultSeed))
	})
	if repErr != nil {
		t.Fatalf("representative run: %v", repErr)
	}
	return repRes
}

func TestRepresentativeRunShape(t *testing.T) {
	res := representative(t)
	if !res.Done {
		t.Fatalf("representative run did not converge")
	}
	if res.FinalRows != 20 {
		t.Fatalf("final rows = %d, want 20", res.FinalRows)
	}
	if res.Accuracy < 0.9 {
		t.Fatalf("accuracy = %.2f, want >= 0.9", res.Accuracy)
	}
	// Paper: 10m44s; shape target is minutes, not hours or seconds.
	if res.Duration < 2*time.Minute || res.Duration > 40*time.Minute {
		t.Fatalf("duration = %v, outside plausible range", res.Duration)
	}
	// Paper: 23 candidate rows for 20 final.
	if res.CandidateRows < 20 || res.CandidateRows > 45 {
		t.Fatalf("candidate rows = %d", res.CandidateRows)
	}
	if !res.Core.Planner().CheckPRI(res.Core.Master()) {
		t.Fatalf("PRI violated at end of run")
	}
	if !res.Core.Planner().SatisfiedBy(res.Core.FinalTable()) {
		t.Fatalf("constraint unsatisfied at end of run")
	}
}

func TestRepresentativeCompensationShape(t *testing.T) {
	res := representative(t)
	if res.Audit.Alloc.Allocated > 10+1e-9 {
		t.Fatalf("allocated %.3f exceeds the $10 budget", res.Audit.Alloc.Allocated)
	}
	if res.Audit.Alloc.Allocated < 7 {
		t.Fatalf("allocated %.3f — most of the budget should be distributable", res.Audit.Alloc.Allocated)
	}
	// The paper's headline: wide pay range tracking contribution.
	var minPay, maxPay float64 = 1e9, 0
	var minName, maxName string
	for _, w := range res.Workers {
		if w.Actual < minPay {
			minPay, minName = w.Actual, w.Name
		}
		if w.Actual > maxPay {
			maxName = w.Name
			maxPay = w.Actual
		}
	}
	if maxPay < 2*minPay {
		t.Fatalf("pay spread too narrow: %.2f..%.2f", minPay, maxPay)
	}
	// More pay should go with more actions for the extremes.
	var minActions, maxActions int
	for _, w := range res.Workers {
		if w.Name == minName {
			minActions = w.Actions
		}
		if w.Name == maxName {
			maxActions = w.Actions
		}
	}
	if maxActions <= minActions {
		t.Fatalf("top earner (%s, %d actions) did not out-act bottom earner (%s, %d)",
			maxName, maxActions, minName, minActions)
	}
}

func TestRepresentativeDeterminism(t *testing.T) {
	a, err := Run(RepresentativeConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(RepresentativeConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Duration != b.Duration || a.CandidateRows != b.CandidateRows || a.FinalRows != b.FinalRows {
		t.Fatalf("same seed must reproduce the run exactly: %+v vs %+v", a, b)
	}
	for i := range a.Workers {
		if a.Workers[i] != b.Workers[i] {
			t.Fatalf("worker report differs: %+v vs %+v", a.Workers[i], b.Workers[i])
		}
	}
	// The reports are gathered in a map. Two runs can iterate it in the same
	// order by chance, so rebuild them from one run many times: every build
	// must come out in name order.
	for i := 0; i < 32; i++ {
		got := workerReports(RepresentativeConfig(7), a.Core, a.Audit.Alloc)
		if !slices.Equal(got, a.Workers) || !slices.IsSortedFunc(got, func(x, y WorkerReport) int { return strings.Compare(x.Name, y.Name) }) {
			t.Fatalf("worker reports not in name order on build %d: %+v", i, got)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(SimConfig{}); err == nil {
		t.Errorf("missing truth should fail")
	}
	cfg := RepresentativeConfig(1)
	cfg.Workers = nil
	if _, err := Run(cfg); err == nil {
		t.Errorf("missing workers should fail")
	}
}

func TestEarningCurveShape(t *testing.T) {
	res := representative(t)
	for _, w := range res.Workers {
		curve := EarningCurve(res.Audit.Trace, res.Audit.Alloc.PerMessage, w.Name, res.Audit.Start)
		if len(curve) == 0 || curve[0].Frac != 0 {
			t.Fatalf("%s: curve must start at 0: %+v", w.Name, curve[:1])
		}
		for i := 1; i < len(curve); i++ {
			if curve[i].Frac < curve[i-1].Frac || curve[i].T < curve[i-1].T {
				t.Fatalf("%s: curve not monotone at %d", w.Name, i)
			}
		}
		if w.Actual > 0 {
			last := curve[len(curve)-1].Frac
			if last < 0.999 || last > 1.001 {
				t.Fatalf("%s: curve must end at 1, got %v", w.Name, last)
			}
		}
	}
	// Unknown worker: just the origin point.
	if got := EarningCurve(res.Core.Trace(), res.Audit.Alloc.PerMessage, "ghost", 0); len(got) != 1 {
		t.Fatalf("ghost curve = %v", got)
	}
}

// TestSpammerResistance is an §8-motivated ablation: adding a spammer must
// not poison the final table — honest votes push garbage out.
func TestSpammerResistance(t *testing.T) {
	cfg := RepresentativeConfig(3)
	cfg.Workers = append(cfg.Workers, crowd.Spec{
		Name: "spammer", Spammer: true, Seed: 999,
	})
	cfg.MaxVirtual = 6 * time.Hour
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Skipf("spammer run did not converge within the budget (seed-dependent)")
	}
	if res.Accuracy < 0.85 {
		t.Fatalf("accuracy with spammer = %.2f, want >= 0.85", res.Accuracy)
	}
	// The spammer's pay share must be far below their action share.
	var spamPay, totalPay float64
	var spamActs, totalActs int
	for _, w := range res.Workers {
		totalPay += w.Actual
		totalActs += w.Actions
		if w.Name == "spammer" {
			spamPay = w.Actual
			spamActs = w.Actions
		}
	}
	if spamActs == 0 {
		t.Skipf("spammer never acted")
	}
	payShare := spamPay / totalPay
	actShare := float64(spamActs) / float64(totalActs)
	if payShare > actShare {
		t.Fatalf("contribution-based pay should punish spam: pay share %.2f > action share %.2f",
			payShare, actShare)
	}
}

func TestWorkerReportsConsistency(t *testing.T) {
	res := representative(t)
	var sumPay float64
	for _, w := range res.Workers {
		sumPay += w.Actual
		if w.Actual > 0 && w.Actions == 0 {
			t.Fatalf("%s paid without actions", w.Name)
		}
		if w.CorrectedEstimate > w.RawEstimate+1e-9 {
			t.Fatalf("%s: corrected estimate exceeds raw", w.Name)
		}
	}
	if diff := sumPay - res.Audit.Alloc.Allocated; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("worker pay sum %.6f != allocated %.6f", sumPay, res.Audit.Alloc.Allocated)
	}
}

func TestEstimatesHelpers(t *testing.T) {
	ws := []WorkerReport{
		{Name: "a", Actual: 1, RawEstimate: 2, CorrectedEstimate: 1.5},
		{Name: "b", Actual: 3, RawEstimate: 3.3, CorrectedEstimate: 3.1},
	}
	if got := Actuals(ws)["b"]; got != 3 {
		t.Errorf("Actuals = %v", got)
	}
	if got := RawEstimates(ws)["a"]; got != 2 {
		t.Errorf("RawEstimates = %v", got)
	}
	if got := CorrectedEstimates(ws)["a"]; got != 1.5 {
		t.Errorf("CorrectedEstimates = %v", got)
	}
	if m := pay.MAPE(Actuals(ws), RawEstimates(ws)); m <= 0 {
		t.Errorf("MAPE = %v", m)
	}
}

func TestReportStringsRender(t *testing.T) {
	res := representative(t)
	e4, err := E4(res)
	if err != nil {
		t.Fatal(err)
	}
	e6, err := E6(res)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]string{
		"E1": E1(res).String(),
		"E2": E2(res).String(),
		"E3": E3(res).String(),
		"E4": e4.String(),
		"E6": e6.String(),
	} {
		if !strings.Contains(s, name) || len(s) < 50 {
			t.Errorf("%s report looks wrong:\n%s", name, s)
		}
	}
}

// TestSoakLargeCollection is a scale check: 10 workers collecting 50 rows
// from a 400-entity truth.
func TestSoakLargeCollection(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	cfg := RepresentativeConfig(2)
	cfg.Truth = crowd.SoccerPlayers(2, 400)
	cfg.Template = cfg.Template.WithCardinality(0) // keep schema
	cfg.Template.Rows = cfg.Template.Rows[:0]
	cfg.Template = cfg.Template.WithCardinality(50)
	base := cfg.Workers
	cfg.Workers = nil
	for i := 0; i < 10; i++ {
		spec := base[i%len(base)]
		spec.Name = fmt.Sprintf("worker%d", i+1)
		spec.Seed = 1000 + int64(i)
		cfg.Workers = append(cfg.Workers, spec)
	}
	cfg.MaxVirtual = 8 * time.Hour
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatalf("soak run did not converge: %d/%d rows", res.FinalRows, 50)
	}
	if res.Accuracy < 0.9 {
		t.Fatalf("soak accuracy = %.2f", res.Accuracy)
	}
	if !res.Core.Planner().CheckPRI(res.Core.Master()) {
		t.Fatalf("PRI violated at scale")
	}
	if res.Audit.Alloc.Allocated > 10+1e-9 {
		t.Fatalf("budget exceeded at scale")
	}
}

// TestLatencyRunsDeterministic guards the broadcast-order fix: latency-
// injected runs must reproduce exactly (the server emits outbounds in
// sorted client order, so jitter draws are stable).
func TestLatencyRunsDeterministic(t *testing.T) {
	run := func() *SimResult {
		cfg := RepresentativeConfig(4)
		cfg.Latency = 5 * time.Second
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Duration != b.Duration || a.CandidateRows != b.CandidateRows {
		t.Fatalf("latency runs diverged: %v/%d vs %v/%d",
			a.Duration, a.CandidateRows, b.Duration, b.CandidateRows)
	}
}
