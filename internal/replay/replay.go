// Package replay rebuilds a collection from its bookkeeping trace (paper
// §3.3: the back-end stores a complete trace of worker actions). Because the
// trace carries every primitive operation in server-processing order,
// replaying it through a fresh replica reproduces the candidate table, the
// final table, and — under any allocation scheme — the exact compensation.
// That makes the trace an audit artifact: "why did worker X earn $Y" is
// answerable offline, without the live system.
package replay

import (
	"errors"
	"fmt"
	"sort"

	"crowdfill/internal/model"
	"crowdfill/internal/pay"
	"crowdfill/internal/sync"
)

// Log is a collection's bookkeeping record as one self-contained artifact:
// everything Run needs to rebuild the table and recompute the exact pay.
// Its JSON form is what the front-end archives and serves on /trace, what
// the root package's ExportTrace writes, and what crowdfill-replay reads.
// Traces written before Start and JoinTime were recorded still load: an
// absent start falls back to the first message's timestamp, and an absent
// join time to the start.
type Log struct {
	// Trace holds every worker message in server order (the set M of §5.2).
	Trace []sync.Message `json:"trace"`
	// CCLog holds the Central Client's messages.
	CCLog []sync.Message `json:"ccLog"`
	// Start is the collection's start timestamp.
	Start int64 `json:"start,omitempty"`
	// JoinTime maps each worker to their first-join timestamp.
	JoinTime map[string]int64 `json:"joinTime,omitempty"`
}

// Rebuild replays the interleaved CC log and worker trace (ordered by the
// server-assigned timestamps) into a fresh replica.
func Rebuild(schema *model.Schema, trace, ccLog []sync.Message) (*sync.Replica, error) {
	if schema == nil {
		return nil, errors.New("replay: schema required")
	}
	msgs := make([]sync.Message, 0, len(trace)+len(ccLog))
	msgs = append(msgs, trace...)
	msgs = append(msgs, ccLog...)
	sort.SliceStable(msgs, func(i, j int) bool { return msgs[i].TS < msgs[j].TS })
	rep := sync.NewReplica(schema)
	for i, m := range msgs {
		if !m.Type.IsOp() {
			return nil, fmt.Errorf("replay: unexpected %v message in trace", m.Type)
		}
		if err := rep.Apply(m); err != nil {
			return nil, fmt.Errorf("replay: message %d (%v at ts %d): %w", i, m.Type, m.TS, err)
		}
	}
	return rep, nil
}

// Audit is the outcome of replaying and re-deriving a collection.
type Audit struct {
	// Replica is the rebuilt end-of-run state.
	Replica *sync.Replica
	// Final is the re-derived final table.
	Final []*model.Row
	// Alloc is the recomputed compensation.
	Alloc *pay.Allocation
	// Messages counts replayed messages (worker + CC).
	Messages int

	trace []sync.Message // for the statements
	start int64
}

// Input configures an audit.
type Input struct {
	Schema *model.Schema
	Score  model.ScoreFunc
	Budget float64
	Scheme pay.Scheme
	// SplitKey and SplitNonKey are the §5.2.3 splitting factors; zero
	// values take pay's defaults.
	SplitKey, SplitNonKey float64
	Trace                 []sync.Message
	CCLog                 []sync.Message
	// Start is the collection start; zero falls back to the first
	// message's timestamp.
	Start int64
	// JoinTime optionally carries worker join times; absent entries fall
	// back to the start.
	JoinTime map[string]int64
}

// Run replays the trace, re-derives the final table, checks the Lemma 3
// invariants on the rebuilt replica, and recomputes compensation.
func Run(in Input) (*Audit, error) {
	if in.Score == nil {
		in.Score = model.DefaultScore
	}
	rep, err := Rebuild(in.Schema, in.Trace, in.CCLog)
	if err != nil {
		return nil, err
	}
	if err := rep.CheckLemma3(); err != nil {
		return nil, fmt.Errorf("replay: rebuilt replica inconsistent: %w", err)
	}
	final := model.FinalTable(rep.Table(), in.Score)
	start := in.Start
	if start == 0 && len(in.CCLog) > 0 {
		start = in.CCLog[0].TS
	} else if start == 0 && len(in.Trace) > 0 {
		start = in.Trace[0].TS
	}
	alloc, err := pay.Compute(pay.Input{
		Schema:      in.Schema,
		Budget:      in.Budget,
		Scheme:      in.Scheme,
		Final:       final,
		Trace:       in.Trace,
		CCLog:       in.CCLog,
		JoinTime:    in.JoinTime,
		Start:       start,
		SplitKey:    in.SplitKey,
		SplitNonKey: in.SplitNonKey,
	})
	if err != nil {
		return nil, err
	}
	return &Audit{
		Replica:  rep,
		Final:    final,
		Alloc:    alloc,
		Messages: len(in.Trace) + len(in.CCLog),
		trace:    in.Trace,
		start:    start,
	}, nil
}

// Statement renders one worker's itemized pay statement: each paid action,
// named by the schema's columns and timed from the collection start.
func (a *Audit) Statement(worker string) string {
	return a.Alloc.FormatStatement(worker, a.trace, a.Replica.Schema().ColumnNames(), a.start)
}

// Statements renders the statement of every worker the allocation pays.
func (a *Audit) Statements() map[string]string {
	out := make(map[string]string, len(a.Alloc.PerWorker))
	for worker := range a.Alloc.PerWorker {
		out[worker] = a.Statement(worker)
	}
	return out
}
