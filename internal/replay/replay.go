// Package replay rebuilds a collection from its bookkeeping trace (paper
// §3.3: the back-end stores a complete trace of worker actions). Because the
// trace carries every primitive operation in server-processing order,
// replaying it through a fresh replica reproduces the candidate table, the
// final table, and — under any allocation scheme — the exact compensation.
// That makes the trace an audit artifact: "why did worker X earn $Y" is
// answerable offline, without the live system.
package replay

import (
	"encoding/json"
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
// It always carries its start, also a start of 0 (a simulation's).
type Log struct {
	// Trace holds every worker message in server order (the set M of §5.2).
	Trace []sync.Message `json:"trace"`
	// CCLog holds the Central Client's messages.
	CCLog []sync.Message `json:"ccLog"`
	// Start is the collection's start timestamp.
	Start int64 `json:"start"`
	// JoinTime maps each worker to their first-join timestamp.
	JoinTime map[string]int64 `json:"joinTime,omitempty"`
}

// UnmarshalJSON decodes a log. One with no "start" key, written before the
// start was recorded, starts at its first message, Central Client first.
func (l *Log) UnmarshalJSON(data []byte) error {
	type plain Log // without this method
	var doc struct {
		plain
		Start *int64 `json:"start"` // shadows plain.Start: nil when absent
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	*l = Log(doc.plain)
	switch {
	case doc.Start != nil:
		l.Start = *doc.Start
	case len(l.CCLog) > 0:
		l.Start = l.CCLog[0].TS
	case len(l.Trace) > 0:
		l.Start = l.Trace[0].TS
	}
	return nil
}

// Rebuild replays the interleaved CC log and worker trace (ordered by the
// server-assigned timestamps) into a fresh replica. The core never stamps
// two messages alike; on a tie in a hand-built log the worker's goes first.
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
	// Alloc is the compensation computed from the embedded input: the
	// re-derived final table (Final), the log and the pricing parameters.
	Alloc *pay.Allocation
	pay.Input
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
	// Start is the collection start, the origin of every time the
	// allocation measures.
	Start int64
	// JoinTime optionally carries worker join times; absent entries fall
	// back to the start.
	JoinTime map[string]int64
}

// Run replays the trace, re-derives the final table, checks the Lemma 3
// invariants on the rebuilt replica, and recomputes compensation. Its
// pay.Input is the only one a collection is priced from.
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
	a := &Audit{Replica: rep, Input: pay.Input{
		Schema:      in.Schema,
		Budget:      in.Budget,
		Scheme:      in.Scheme,
		Final:       model.FinalTable(rep.Table(), in.Score),
		Trace:       in.Trace,
		CCLog:       in.CCLog,
		JoinTime:    in.JoinTime,
		Start:       in.Start,
		SplitKey:    in.SplitKey,
		SplitNonKey: in.SplitNonKey,
	}}
	if a.Alloc, err = pay.Compute(a.Input); err != nil {
		return nil, err
	}
	return a, nil
}

// Price recomputes compensation for the rebuilt table under another
// allocation scheme (the §6 scheme comparisons), without replaying again.
func (a *Audit) Price(scheme pay.Scheme) (*pay.Allocation, error) {
	in := a.Input
	in.Scheme = scheme
	return pay.Compute(in)
}

// Statement renders one worker's itemized pay statement: each paid action,
// named by the schema's columns and timed from the collection start.
func (a *Audit) Statement(worker string) string {
	return a.Alloc.FormatStatement(worker, a.Trace, a.Schema.ColumnNames(), a.Start)
}

// Statements renders the statement of every worker the allocation pays.
func (a *Audit) Statements() map[string]string {
	out := make(map[string]string, len(a.Alloc.PerWorker))
	for worker := range a.Alloc.PerWorker {
		out[worker] = a.Statement(worker)
	}
	return out
}
