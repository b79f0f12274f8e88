// Package microtask implements the microtask-based baseline CrowdFill is
// contrasted against (paper §1 and §7: CrowdDB / Deco-style collection, §8's
// future-work comparison). Collection is decomposed into specific questions
// — "name a new entity", "fill attribute A of entity K", "is this row
// correct?" — assigned to workers who never see each other's answers. The
// baseline reuses the same simulated-crowd model and virtual clock as the
// table-filling system, so latency, cost, and quality compare directly.
package microtask

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"crowdfill/internal/crowd"
	"crowdfill/internal/model"
	"crowdfill/internal/simclock"
)

// Config parameterizes one baseline run.
type Config struct {
	// Truth is the shared ground truth.
	Truth *crowd.Dataset
	// Rows is the number of distinct verified rows to collect.
	Rows int
	// Replication is the votes required per row (majority decides);
	// defaults to 3.
	Replication int
	// Workers reuse the crowd specs (accuracy, knowledge, think times).
	Workers []crowd.Spec
	// PayPerTask is the fixed microtask price (the classical pricing
	// model, as opposed to CrowdFill's budget split).
	PayPerTask float64
	// MaxVirtual bounds the run (default 8h).
	MaxVirtual time.Duration
}

// Result summarizes a baseline run.
type Result struct {
	Done     bool
	Duration time.Duration
	// Rows is the number of verified, distinct-key rows collected.
	Rows int
	// Accuracy is the fraction of collected rows matching ground truth.
	Accuracy float64
	// Tasks is the total number of microtasks answered.
	Tasks int
	// DuplicateKeys counts new-entity answers discarded because another
	// worker had already contributed the same key — waste that CrowdFill's
	// shared table view avoids by construction.
	DuplicateKeys int
	// Cost is Tasks × PayPerTask.
	Cost float64
}

// task kinds.
type taskKind int

const (
	taskNewEntity taskKind = iota
	taskFill
	taskVerify
)

type task struct {
	kind taskKind
	// row under construction (indexed into rows).
	row int
	col int
}

// rowState tracks one entity being collected.
type rowState struct {
	vec      model.Vector
	truth    model.Vector // resolved ground truth for the key ("" key = none)
	fake     bool         // key not present in the ground truth
	yes, no  int
	verified bool
	dead     bool
}

// Run executes the baseline simulation.
func Run(cfg Config, seed int64) (*Result, error) {
	if cfg.Truth == nil || cfg.Rows <= 0 || len(cfg.Workers) == 0 {
		return nil, errors.New("microtask: config needs truth, rows, and workers")
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 3
	}
	if cfg.MaxVirtual == 0 {
		cfg.MaxVirtual = 8 * time.Hour
	}
	schema := cfg.Truth.Schema
	clk := simclock.NewSim(0)
	rng := rand.New(rand.NewSource(seed))

	workers := make([]*crowd.Worker, len(cfg.Workers))
	for i, spec := range cfg.Workers {
		workers[i] = crowd.NewWorker(spec, cfg.Truth)
	}

	var (
		rows     []*rowState
		queue    []task
		seenKeys = map[string]bool{}
		res      = &Result{}
		doneAt   = int64(-1)
	)
	kc := schema.KeyColumns()

	verifiedCount := func() int {
		n := 0
		for _, r := range rows {
			if r.verified && !r.dead {
				n++
			}
		}
		return n
	}
	// Seed the queue: one new-entity question per needed row. More are
	// issued as duplicates and failures surface.
	for i := 0; i < cfg.Rows; i++ {
		queue = append(queue, task{kind: taskNewEntity})
	}

	// answer resolves one task for one worker, possibly extending the queue.
	answer := func(w *crowd.Worker, t task) {
		res.Tasks++
		switch t.kind {
		case taskNewEntity:
			truth := pickEntity(w, rng, cfg.Truth)
			if truth == nil {
				// The worker knows nothing fresh; reissue for someone else.
				queue = append(queue, t)
				return
			}
			key := truth.KeyOf(schema)
			if seenKeys[key] {
				// Blind duplicate — the microtask model's fundamental waste.
				res.DuplicateKeys++
				queue = append(queue, t)
				return
			}
			seenKeys[key] = true
			rs := &rowState{vec: model.NewVector(schema.NumColumns()), truth: truth}
			for _, k := range kc {
				rs.vec[k] = truth[k] // key answers assumed typo-free here; fills carry the error model
			}
			rows = append(rows, rs)
			for col := range schema.Columns {
				if !rs.vec[col].Set {
					queue = append(queue, task{kind: taskFill, row: len(rows) - 1, col: col})
				}
			}
		case taskFill:
			rs := rows[t.row]
			if rs.dead || rs.vec[t.col].Set {
				return
			}
			val := workerValue(w, rng, rs.truth, t.col)
			rs.vec[t.col] = model.Cell{Set: true, Val: val}
			if rs.vec.IsComplete() {
				for i := 0; i < cfg.Replication; i++ {
					queue = append(queue, task{kind: taskVerify, row: t.row})
				}
			}
		case taskVerify:
			rs := rows[t.row]
			if rs.dead || rs.verified {
				return
			}
			correct := rs.truth != nil && rs.vec.Equal(rs.truth)
			judge := correct
			if rng.Float64() >= w.Spec.VoteAccuracy {
				judge = !judge
			}
			if judge {
				rs.yes++
			} else {
				rs.no++
			}
			if rs.yes+rs.no >= cfg.Replication {
				if rs.yes > rs.no {
					rs.verified = true
				} else {
					// Majority rejected: retire the row and restart the
					// entity from scratch (the microtask system cannot
					// repair individual cells without another round-trip).
					rs.dead = true
					delete(seenKeys, rs.truth.KeyOf(schema))
					queue = append(queue, task{kind: taskNewEntity})
				}
			}
		}
	}

	// Worker loops: pull the next queued task after a think time.
	maxNs := int64(cfg.MaxVirtual)
	var loop func(i int)
	loop = func(i int) {
		if doneAt >= 0 || clk.Now() > maxNs {
			return
		}
		if len(queue) == 0 {
			clk.After(2*time.Second, func() { loop(i) })
			return
		}
		t := queue[0]
		queue = queue[1:]
		think := taskThink(workers[i], t)
		clk.After(think, func() {
			if doneAt >= 0 {
				return
			}
			answer(workers[i], t)
			if verifiedCount() >= cfg.Rows {
				doneAt = clk.Now()
				return
			}
			loop(i)
		})
	}
	for i := range workers {
		i := i
		clk.After(time.Duration(i)*577*time.Millisecond, func() { loop(i) })
	}
	for clk.Pending() > 0 && doneAt < 0 && clk.Now() <= maxNs {
		clk.Step()
	}

	res.Done = doneAt >= 0
	if doneAt >= 0 {
		res.Duration = time.Duration(doneAt)
	} else {
		res.Duration = time.Duration(clk.Now())
	}
	correct := 0
	for _, r := range rows {
		if !r.verified || r.dead {
			continue
		}
		res.Rows++
		if cfg.Truth.Contains(r.vec) {
			correct++
		}
	}
	if res.Rows > 0 {
		res.Accuracy = float64(correct) / float64(res.Rows)
	}
	res.Cost = float64(res.Tasks) * cfg.PayPerTask
	return res, nil
}

// pickEntity returns a truth row the worker knows; the microtask worker
// cannot see what others contributed, so no dedup is possible here.
func pickEntity(w *crowd.Worker, rng *rand.Rand, truth *crowd.Dataset) model.Vector {
	known := w.KnownRows()
	if known == 0 {
		return nil
	}
	// Sample among the worker's known rows via the dataset: reuse the
	// public surface only (KnownRows + deterministic resampling).
	idx := rng.Intn(len(truth.Rows))
	for i := 0; i < len(truth.Rows); i++ {
		row := truth.Rows[(idx+i)%len(truth.Rows)]
		if workerKnows(w, row, truth) {
			return row
		}
	}
	return nil
}

// workerKnows approximates membership in the worker's knowledge subset by
// re-deriving it from the spec seed (same procedure as crowd.NewWorker).
func workerKnows(w *crowd.Worker, row model.Vector, truth *crowd.Dataset) bool {
	// The crowd package samples knowledge at construction; here a simple
	// proxy keeps the baseline self-contained: knowledge fraction applied
	// by stable hash of (seed, key).
	h := int64(1)
	for _, c := range row {
		for _, b := range []byte(c.Val) {
			h = h*1000003 + int64(b)
		}
	}
	h = h*31 + w.Spec.Seed
	if h < 0 {
		h = -h
	}
	return float64(h%1000)/1000 < w.Spec.Knowledge
}

// workerValue answers a fill microtask with the worker's accuracy model.
func workerValue(w *crowd.Worker, rng *rand.Rand, truth model.Vector, col int) string {
	if truth == nil {
		return "unknown"
	}
	if rng.Float64() < w.Spec.FillAccuracy {
		return truth[col].Val
	}
	// A plausible wrong value: perturb numerically or append a typo.
	val := truth[col].Val
	if len(val) > 0 && val[0] >= '0' && val[0] <= '9' {
		return fmt.Sprint(1 + rng.Intn(150))
	}
	return val + "e"
}

// taskThink maps task kinds onto the worker's think-time model.
func taskThink(w *crowd.Worker, t task) time.Duration {
	mean := 8 * time.Second
	switch t.kind {
	case taskNewEntity:
		if len(w.Spec.FillTime) > 0 && w.Spec.FillTime[0] > 0 {
			mean = w.Spec.FillTime[0]
		}
	case taskFill:
		if t.col < len(w.Spec.FillTime) && w.Spec.FillTime[t.col] > 0 {
			mean = w.Spec.FillTime[t.col]
		}
	case taskVerify:
		// Verifying a whole row reads every attribute; slower than one
		// CrowdFill vote.
		mean = 2 * w.Spec.VoteTime
		if mean == 0 {
			mean = 8 * time.Second
		}
	}
	return jitter(w, mean)
}

// jitter mirrors the crowd package's lognormal think-time model.
func jitter(w *crowd.Worker, mean time.Duration) time.Duration {
	return w.Jitter(mean)
}
