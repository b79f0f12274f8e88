// Package crowdfill is a from-scratch implementation of CrowdFill, the
// system for collecting structured data from the crowd described in:
//
//	Hyunjung Park and Jennifer Widom.
//	"CrowdFill: Collecting Structured Data from the Crowd." SIGMOD 2014.
//
// Instead of decomposing collection into microtasks, CrowdFill shows one
// evolving, partially-filled table to every participating worker. Workers
// fill empty cells, upvote complete rows, and downvote rows they believe
// wrong; a central server propagates every primitive operation to all
// clients, with an operation model that makes concurrent edits merge
// seamlessly and provably converge. A Central Client inserts rows to keep
// the table satisfiable against user constraints (cardinality, values, and
// predicates templates), and a compensation engine divides a fixed budget
// over the worker actions that actually contributed to the final table.
//
// The package exposes the system's user-level surface: table specifications
// (Spec), live collections (Collection) serving WebSocket worker clients or
// in-process workers (Worker), and deterministic crowd simulations
// (Simulate) that regenerate the paper's evaluation. The building blocks
// live under internal/: the formal model, the synchronization layer and its
// convergence machinery, constraint maintenance, compensation and log
// replay, the WebSocket stack, the simulated crowd, marketplace, front-end
// and its file store, and the experiment harness.
package crowdfill

import (
	"fmt"
	"time"

	"crowdfill/internal/crowd"
	"crowdfill/internal/exp"
	"crowdfill/internal/pay"
	"crowdfill/internal/spec"
)

// Spec is a user-facing table specification: schema, primary key, scoring
// function, constraint template, budget, and allocation scheme. The zero
// value is not usable; fill in at least Name, Columns, and a Template or
// Cardinality. See internal/spec for field documentation.
type Spec = spec.TableSpec

// Column describes one column of a Spec.
type Column = spec.ColumnSpec

// Scoring selects the vote-aggregation function of a Spec.
type Scoring = spec.ScoringSpec

// WorkerProfile parameterizes one simulated worker for Simulate.
type WorkerProfile = crowd.Spec

// SimOptions configures a deterministic crowd simulation over a Spec.
type SimOptions struct {
	// Spec describes the table to collect.
	Spec Spec
	// Workers are the simulated crowd; when empty, the paper's five-worker
	// representative crowd is used.
	Workers []WorkerProfile
	// TruthRows sizes the synthetic ground truth (default 220 entities).
	TruthRows int
	// SoccerTruth uses the paper's soccer-player ground truth (names,
	// nationalities, positions, caps in [80,99], goals, dob) instead of a
	// generic synthetic dataset; the Spec's schema must have the same
	// column count as SoccerPlayer(name, nationality, position, caps,
	// goals, dob).
	SoccerTruth bool
	// Seed makes the run reproducible.
	Seed int64
	// MaxVirtual bounds the virtual-time budget (default 4h).
	MaxVirtual time.Duration
}

// SimResult is a completed simulation with the paper's §6 reports available.
type SimResult = exp.SimResult

// Simulate runs a deterministic crowd simulation: a virtual-time back-end
// server, Central Client, estimator, and simulated workers. The result
// carries the final table, the message trace, per-worker compensation, and
// everything the §6 experiment reports need.
func Simulate(opts SimOptions) (*SimResult, error) {
	cfg, err := opts.Spec.Build()
	if err != nil {
		return nil, err
	}
	truthRows := opts.TruthRows
	if truthRows == 0 {
		truthRows = 220
	}
	var truth *crowd.Dataset
	if opts.SoccerTruth {
		truth = crowd.SoccerPlayers(opts.Seed+41, truthRows)
		if truth.Schema.NumColumns() != cfg.Schema.NumColumns() {
			return nil, fmt.Errorf("crowdfill: SoccerTruth needs a %d-column schema, spec has %d",
				truth.Schema.NumColumns(), cfg.Schema.NumColumns())
		}
		// Workers reason over the spec's schema (keys, domains) with the
		// soccer facts as values.
		truth = &crowd.Dataset{Schema: cfg.Schema, Rows: truth.Rows}
	} else {
		truth = crowd.Generic(opts.Seed, cfg.Schema, truthRows)
	}
	workers := opts.Workers
	if len(workers) == 0 {
		workers = exp.RepresentativeConfig(opts.Seed).Workers
	}
	return exp.Run(exp.SimConfig{
		Truth:            truth,
		Template:         cfg.Template,
		Score:            cfg.Score,
		Budget:           cfg.Budget,
		Scheme:           cfg.Scheme,
		SplitKey:         cfg.SplitKey,
		SplitNonKey:      cfg.SplitNonKey,
		TrackPerformance: cfg.TrackPerformance,
		Workers:          workers,
		MaxVotesPerRow:   cfg.MaxVotesPerRow,
		MaxVirtual:       opts.MaxVirtual,
	})
}

// SimulatePaper runs the paper's §6 representative experiment configuration
// (five workers, 20 soccer players with caps in [80,99], $10 budget,
// dual-weighted allocation) with the given seed.
func SimulatePaper(seed int64) (*SimResult, error) {
	return exp.Run(exp.RepresentativeConfig(seed))
}

// SchemeName returns the human-readable name of an allocation scheme string,
// validating it.
func SchemeName(s string) (string, error) {
	scheme, err := pay.ParseScheme(s)
	if err != nil {
		return "", err
	}
	return scheme.String(), nil
}

// Version identifies this implementation.
const Version = "1.0.0"

// PaperSeed is the default seed of the representative §6 run (chosen, like
// the paper's, as a typical well-behaved session).
const PaperSeed = exp.DefaultSeed

// ResultSummary renders a one-line description of a simulation result.
func ResultSummary(res *SimResult) string {
	return fmt.Sprintf("done=%v rows=%d candidate=%d accuracy=%.0f%% duration=%v",
		res.Done, res.FinalRows, res.CandidateRows, res.Accuracy*100,
		res.Duration.Round(time.Second))
}
