// Package exp is the experiment harness that regenerates every table and
// figure of the paper's §6 evaluation (see DESIGN.md's experiment index).
// Runs are deterministic: a virtual clock drives simulated workers against
// the real server core, and all compensation statistics derive from virtual
// timestamps.
package exp

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"crowdfill/internal/client"
	"crowdfill/internal/constraint"
	"crowdfill/internal/crowd"
	"crowdfill/internal/metrics"
	"crowdfill/internal/model"
	"crowdfill/internal/pay"
	"crowdfill/internal/replay"
	"crowdfill/internal/server"
	"crowdfill/internal/simclock"
	"crowdfill/internal/sync"
)

// SimConfig describes one simulated data-collection run.
type SimConfig struct {
	// Truth is the ground truth workers partially know.
	Truth *crowd.Dataset
	// Template is the constraint; zero-value means Cardinality(20).
	Template constraint.Template
	// Score defaults to the paper's majority-of-3 scheme.
	Score model.ScoreFunc
	// Budget is the monetary budget B (dollars).
	Budget float64
	// Scheme drives both the estimator during the run and the final
	// allocation.
	Scheme pay.Scheme
	// SplitKey and SplitNonKey are the §5.2.3 splitting factors of the
	// final allocation; zero values take pay's defaults.
	SplitKey, SplitNonKey float64
	// Workers are the simulated crowd.
	Workers []crowd.Spec
	// MaxVotesPerRow caps votes per row at the clients (0 = unlimited).
	MaxVotesPerRow int
	// MaxVirtual stops a run that cannot converge (default 4h virtual).
	MaxVirtual time.Duration
	// TrackPerformance enables the estimator's per-worker performance
	// scaling (§5.3's noted refinement).
	TrackPerformance bool
	// Latency, when positive, delays each server→client delivery by a
	// jittered one-way delay (per-link FIFO order preserved). Zero means
	// instantaneous propagation. Client→server stays immediate: the server
	// timestamp is what compensation uses either way, and the interesting
	// concurrency effects (stale views, conflicting fills, §2.4.1) come
	// from how old each worker's table copy is.
	Latency time.Duration
}

// WorkerReport aggregates one worker's run outcome.
type WorkerReport struct {
	Name      string
	Fills     int
	Upvotes   int
	Downvotes int
	// Actions counts paid actions: fills and manual votes (the paper's "54
	// actions (fill, upvote, and downvote combined)").
	Actions int
	// Actual is the final compensation; RawEstimate sums the estimates
	// shown at action time; CorrectedEstimate sums only estimates of
	// actions that ended up contributing (Figure 5's corrected bars).
	Actual            float64
	RawEstimate       float64
	CorrectedEstimate float64
}

// CurvePoint is one point of a Figure 6 earning-rate curve.
type CurvePoint struct {
	T    time.Duration // elapsed virtual time
	Frac float64       // cumulative fraction of the worker's final pay
}

// SimResult is the outcome of one run.
type SimResult struct {
	Done          bool
	Duration      time.Duration
	CandidateRows int
	FinalRows     int
	// Accuracy is the fraction of final rows exactly matching ground truth.
	Accuracy float64
	// DownvotedRows counts candidate rows with ≥ 2 downvotes (the paper
	// reports "two rows were downvoted twice or more").
	DownvotedRows int
	Workers       []WorkerReport
	// Audit prices the run from its log (server.Audit); the reports use
	// its allocation, and Audit.Price reprices it under another scheme.
	Audit *replay.Audit
	Core  *server.Core
	// Metrics is the run's private registry: every simulated run reports
	// through the same instrument set as the live server (message-type
	// counters, repair histograms, estimate-coalescing counters), so
	// experiment assertions and operational dashboards read the same series.
	Metrics *metrics.Registry
	// Recorder is the run's flight recorder (repair overruns, drops).
	Recorder *metrics.Recorder
}

// Run executes one simulated collection and computes all reports.
func Run(cfg SimConfig) (*SimResult, error) {
	if cfg.Truth == nil {
		return nil, errors.New("exp: config needs a ground truth dataset")
	}
	if cfg.Score == nil {
		cfg.Score = model.MajorityShortcut(3)
	}
	if cfg.Template.Schema == nil {
		cfg.Template = constraint.Cardinality(cfg.Truth.Schema, 20)
	}
	if cfg.MaxVirtual == 0 {
		cfg.MaxVirtual = 4 * time.Hour
	}
	if len(cfg.Workers) == 0 {
		return nil, errors.New("exp: config needs workers")
	}

	clk := simclock.NewSim(0)
	// Per-run registry and recorder: run isolation keeps counts exact for
	// assertions, and the sim exercises the same instrumentation paths as
	// the live server (the registry holds only atomics, so determinism is
	// untouched; the recorder's wall timestamps are observability metadata,
	// not simulation state).
	reg := metrics.NewRegistry()
	rec := metrics.NewRecorder(256)
	scfg := server.Config{
		Schema:           cfg.Truth.Schema,
		Score:            cfg.Score,
		Template:         cfg.Template,
		Budget:           cfg.Budget,
		Scheme:           cfg.Scheme,
		SplitKey:         cfg.SplitKey,
		SplitNonKey:      cfg.SplitNonKey,
		MaxVotesPerRow:   cfg.MaxVotesPerRow,
		Clock:            clk,
		TrackPerformance: cfg.TrackPerformance,
		Metrics:          server.NewMetrics(reg, rec),
	}
	core, err := server.New(scfg)
	if err != nil {
		return nil, err
	}

	clients := make(map[string]*client.Client, len(cfg.Workers))
	workers := make([]*crowd.Worker, len(cfg.Workers))
	rng := rand.New(rand.NewSource(int64(len(cfg.Workers))*1_000_003 + int64(cfg.Latency)))
	// lastDue keeps per-link FIFO delivery under jittered latency (the
	// model's reliable in-order assumption, §2.4).
	lastDue := make(map[string]int64)
	deliver := func(to string, m sync.Message) {
		c := clients[to]
		if cfg.Latency <= 0 {
			if err := c.HandleServer(m); err != nil {
				panic(fmt.Sprintf("exp: deliver: %v", err))
			}
			return
		}
		delay := time.Duration(float64(cfg.Latency) * (0.5 + rng.Float64()))
		due := clk.Now() + int64(delay)
		if due <= lastDue[to] {
			due = lastDue[to] + 1
		}
		lastDue[to] = due
		clk.At(due, func() {
			if err := c.HandleServer(m); err != nil {
				panic(fmt.Sprintf("exp: delayed deliver: %v", err))
			}
		})
	}
	// ids is the fan-out order of every broadcast: sorted client ids, so the
	// jitter draws above happen in one fixed order per seed.
	ids := make([]string, len(cfg.Workers))
	for i, spec := range cfg.Workers {
		c, cerr := client.New(client.Config{
			ID:             spec.Name,
			Worker:         spec.Name,
			Schema:         cfg.Truth.Schema,
			MaxVotesPerRow: cfg.MaxVotesPerRow,
		})
		if cerr != nil {
			return nil, cerr
		}
		clients[spec.Name] = c
		workers[i] = crowd.NewWorker(spec, cfg.Truth)
		ids[i] = spec.Name
		for _, o := range core.AddClient(spec.Name, spec.Name) {
			deliver(o.To, o.Msg)
		}
	}
	sort.Strings(ids)

	var doneAt int64 = -1
	maxNs := int64(cfg.MaxVirtual)

	// Each worker is a decide → think → commit loop on the virtual clock.
	var step func(i int)
	commit := func(i int, d crowd.Decision) {
		if core.Done() || clk.Now() > maxNs {
			return
		}
		msgs, aerr := d.Act(clients[cfg.Workers[i].Name])
		// Stale decisions (the row changed while thinking) just lose the
		// turn — the human analogue re-reads the table.
		if aerr == nil {
			for _, m := range msgs {
				bcasts, herr := core.HandleBroadcast(cfg.Workers[i].Name, m)
				if herr != nil {
					panic(fmt.Sprintf("exp: handle: %v", herr))
				}
				core.TakeWarnings().Emit()
				for _, b := range bcasts {
					msg := b.Prepared.Message()
					for _, id := range ids {
						if id != b.Exclude {
							deliver(id, msg)
						}
					}
				}
			}
		}
		if core.Done() {
			if doneAt < 0 {
				doneAt = clk.Now()
			}
			return
		}
		step(i)
	}
	step = func(i int) {
		if core.Done() || clk.Now() > maxNs {
			return
		}
		d := workers[i].Decide(clients[cfg.Workers[i].Name])
		clk.After(d.Think, func() { commit(i, d) })
	}
	for i := range workers {
		// Stagger arrivals slightly so first actions don't tie.
		i := i
		clk.After(time.Duration(i)*731*time.Millisecond, func() { step(i) })
	}

	for clk.Pending() > 0 && !core.Done() && clk.Now() <= maxNs {
		clk.Step()
	}
	if doneAt < 0 {
		doneAt = clk.Now()
	}

	audit, err := server.Audit(scfg, core.Log())
	if err != nil {
		return nil, err
	}
	res := &SimResult{
		Done:          core.Done(),
		CandidateRows: core.Master().Table().Len(),
		Audit:         audit,
		Core:          core,
		Metrics:       reg,
		Recorder:      rec,
	}
	res.Duration = time.Duration(doneAt - audit.Start)
	final := audit.Final
	res.FinalRows = len(final)
	correct := 0
	for _, r := range final {
		if cfg.Truth.Contains(r.Vec) {
			correct++
		}
	}
	if len(final) > 0 {
		res.Accuracy = float64(correct) / float64(len(final))
	}
	core.Master().Table().Each(func(r *model.Row) {
		if r.Down >= 2 {
			res.DownvotedRows++
		}
	})
	res.Workers = workerReports(cfg, core, audit.Alloc)
	return res, nil
}

// workerReports builds per-worker aggregates from the trace, the allocation,
// and the estimator records, sorted by worker name.
func workerReports(cfg SimConfig, core *server.Core, alloc *pay.Allocation) []WorkerReport {
	byName := make(map[string]*WorkerReport)
	for _, spec := range cfg.Workers {
		byName[spec.Name] = &WorkerReport{Name: spec.Name}
	}
	for _, m := range core.Trace() {
		r := byName[m.Worker]
		if r == nil {
			continue
		}
		switch m.Type {
		case sync.MsgReplace:
			r.Fills++
			r.Actions++
		case sync.MsgUpvote:
			if !m.Auto {
				r.Upvotes++
				r.Actions++
			}
		case sync.MsgDownvote:
			r.Downvotes++
			r.Actions++
		default:
			// Inserts, unvotes and server-originated traffic earn no
			// per-worker action credit.
		}
	}
	for w, amt := range alloc.PerWorker {
		if r := byName[w]; r != nil {
			r.Actual = amt
		}
	}
	for _, rec := range core.Estimator().Records {
		r := byName[rec.Worker]
		if r == nil {
			continue
		}
		r.RawEstimate += rec.Estimate
		if rec.TraceIdx < len(alloc.PerMessage) && alloc.PerMessage[rec.TraceIdx] > 0 {
			r.CorrectedEstimate += rec.Estimate
		}
	}
	out := make([]WorkerReport, 0, len(byName))
	for _, r := range byName {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// EarningCurve computes a worker's cumulative earning fraction over time
// under the given per-message allocation (Figure 6). The curve starts at
// (0, 0) and ends at (duration, 1) for workers with nonzero pay.
func EarningCurve(trace []sync.Message, perMessage []float64, worker string, start int64) []CurvePoint {
	var total float64
	for i, m := range trace {
		if m.Worker == worker {
			total += perMessage[i]
		}
	}
	curve := []CurvePoint{{T: 0, Frac: 0}}
	if total == 0 {
		return curve
	}
	var cum float64
	for i, m := range trace {
		if m.Worker != worker || perMessage[i] == 0 {
			continue
		}
		cum += perMessage[i]
		curve = append(curve, CurvePoint{
			T:    time.Duration(m.TS - start),
			Frac: cum / total,
		})
	}
	return curve
}

// RawEstimates / CorrectedEstimates project worker reports into the maps
// MAPE expects.
func RawEstimates(ws []WorkerReport) map[string]float64 {
	out := make(map[string]float64, len(ws))
	for _, w := range ws {
		out[w.Name] = w.RawEstimate
	}
	return out
}

// CorrectedEstimates returns per-worker corrected estimate sums.
func CorrectedEstimates(ws []WorkerReport) map[string]float64 {
	out := make(map[string]float64, len(ws))
	for _, w := range ws {
		out[w.Name] = w.CorrectedEstimate
	}
	return out
}

// Actuals returns per-worker actual compensation.
func Actuals(ws []WorkerReport) map[string]float64 {
	out := make(map[string]float64, len(ws))
	for _, w := range ws {
		out[w.Name] = w.Actual
	}
	return out
}
