// Package server implements CrowdFill's back-end server (paper §3.3): the
// master copy of the candidate table, the broadcast hub that forwards each
// incoming message to every other client, the Central Client that maintains
// the Probable Rows Invariant, the worker-action trace kept for
// compensation, the online compensation estimator, and completion detection.
//
// Core is a synchronous state machine so the same logic drives both the
// deterministic simulation harness (virtual clock, direct calls) and the
// live WebSocket server (goroutines + mutex around Core).
package server

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"crowdfill/internal/constraint"
	"crowdfill/internal/metrics"
	"crowdfill/internal/model"
	"crowdfill/internal/pay"
	"crowdfill/internal/simclock"
	"crowdfill/internal/sync"
)

// Config configures a data-collection run.
type Config struct {
	// Schema is the table being collected.
	Schema *model.Schema
	// Score aggregates votes; nil means the default u−d.
	Score model.ScoreFunc
	// Template is the constraint to satisfy (cardinality / values /
	// predicates, already unified).
	Template constraint.Template
	// Budget is the total monetary budget B.
	Budget float64
	// Scheme is the allocation scheme for compensation.
	Scheme pay.Scheme
	// MaxVotesPerRow is advertised to clients (0 = unlimited).
	MaxVotesPerRow int
	// Clock provides timestamps; nil means the real clock.
	Clock simclock.Clock
	// SplitKey/SplitNonKey/SplitByColumn are the §5.2.3 splitting factors.
	SplitKey, SplitNonKey float64
	SplitByColumn         map[int]float64
	// TrackPerformance enables per-worker performance scaling of the
	// displayed estimates (§5.3's noted refinement).
	TrackPerformance bool
	// Logf receives operational warnings (e.g. Central Client repair
	// overruns); nil discards them.
	Logf func(format string, args ...any)
	// Metrics is the instrument set the core (and any NetServer wrapping it)
	// reports into. Nil selects the process-wide set (ProcessMetrics); tests
	// and simulations pass their own registry-backed set for isolation.
	Metrics *Metrics
	// LogCapacity sizes the broadcast log a NetServer builds over this core
	// (how many records a client may lag before eviction); 0 means
	// defaultLogCapacity.
	LogCapacity int
}

// Outbound is a private message the caller must deliver to one client — what
// AddClient returns for a joiner. Prepared, when non-nil, is the shared
// once-encoded form of Msg (the epoch-cached join snapshot), so transports
// that serialize encode it once per epoch instead of once per joiner.
type Outbound struct {
	To       string // client id
	Msg      sync.Message
	Prepared *sync.Prepared
}

// Broadcast is one message addressed to every connected client except
// Exclude (empty = truly everyone). It is the publish-side unit of the
// broadcast plane: HandleBroadcast returns a constant number of these per
// handled message, independent of how many clients are connected, and the
// transport fans them out through per-connection log cursors.
type Broadcast struct {
	Prepared *sync.Prepared
	Exclude  string // origin client id to skip, if any
}

// Core is the back-end server state machine. It is NOT safe for concurrent
// use; network frontends must serialize calls.
type Core struct {
	cfg     Config
	score   model.ScoreFunc
	master  *sync.Replica
	planner *constraint.Planner
	ccGen   *sync.IDGen
	est     *pay.Estimator
	index   *model.TableIndex // incremental probable/final maintenance
	logf    func(format string, args ...any)
	metrics *Metrics

	clients  map[string]string // client id -> worker id
	joinTime map[string]int64  // worker -> first join timestamp

	trace  []sync.Message // stamped worker messages (the set M)
	ccLog  []sync.Message // stamped Central Client messages
	bcasts []Broadcast    // HandleBroadcast's result, reused by the next call

	// Estimate-broadcast coalescing state: this decision's figures (filled
	// in place), the last broadcast ones, and messages handled since then.
	estNow        sync.Estimates
	lastEst       *sync.Estimates
	sinceEstBcast int

	// Late-join snapshot cache: the encoded snapshot is rebuilt only when
	// the master replica's epoch moved, so a join storm between mutations
	// takes and encodes one snapshot total instead of one per joiner.
	snapPrep  *sync.Prepared
	snapEpoch uint64

	repairOverruns int // times runCC hit the iteration cap without converging

	// warn holds the operational warnings raised since the last TakeWarnings.
	warn Warnings

	// Completion memo: the (final-winner counter, template removals) pair
	// the completion condition was last decided on. The condition is a
	// function of the final-table winners and the active template only, so
	// while neither moved the answer stands.
	doneDecided  bool
	doneFinalVer uint64
	doneRemovals int

	start  int64
	lastTS int64
	done   bool
}

// maxRepairIters bounds one runCC convergence loop; hitting it is counted
// and logged rather than silently swallowed.
const maxRepairIters = 1000

// estimateInterval is the forced-broadcast period: an estimate goes out
// every estimateInterval handled messages even when it is unchanged.
const estimateInterval = 64

// New builds a Core, seeds the candidate table from the template via the
// Central Client, and checks whether the constraint is (trivially) already
// satisfied.
func New(cfg Config) (*Core, error) {
	if cfg.Schema == nil {
		return nil, errors.New("server: config needs a schema")
	}
	if err := cfg.Schema.Validate(); err != nil {
		return nil, err
	}
	if cfg.Template.Schema == nil {
		return nil, errors.New("server: config needs a constraint template")
	}
	if err := cfg.Template.Validate(); err != nil {
		return nil, err
	}
	// Every estimate is a share of the budget; a non-finite one cannot be encoded.
	if math.IsNaN(cfg.Budget) || math.IsInf(cfg.Budget, 0) || cfg.Budget < 0 {
		return nil, fmt.Errorf("server: budget must be finite and non-negative, got %v", cfg.Budget)
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	score := cfg.Score
	if score == nil {
		score = model.DefaultScore
	}
	if err := model.ValidateScore(score, 8); err != nil {
		return nil, err
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	// The index follows every mutation of the master. The planner's persistent
	// adjacency and matching follow its probable-set deltas, so each repair
	// costs O(delta), not table or template size; the estimator's denominator
	// tallies follow the same deltas instead of rescanning probable rows.
	master := sync.NewReplica(cfg.Schema)
	index := model.NewTableIndex(master.Table(), score)
	master.SetObserver(index)
	c := &Core{
		cfg:      cfg,
		score:    score,
		master:   master,
		index:    index,
		planner:  constraint.NewPlanner(cfg.Template, score, index),
		ccGen:    sync.NewIDGen("cc"),
		logf:     logf,
		clients:  make(map[string]string),
		joinTime: make(map[string]int64),
	}
	c.metrics = cfg.Metrics
	if c.metrics == nil {
		c.metrics = ProcessMetrics()
	}
	c.start = cfg.Clock.Now()
	c.lastTS = c.start
	c.est = pay.NewEstimator(cfg.Schema, score, cfg.Scheme, cfg.Budget, cfg.Template, c.start, index)
	c.est.TrackPerformance(cfg.TrackPerformance)

	// §4.2 initialization: populate the table with the template rows,
	// upvoting complete ones, then repair until stable.
	for _, a := range c.planner.InitActions() {
		c.execAction(a)
	}
	c.runCC()
	c.checkDone()
	c.TakeWarnings().Emit() // no driver holds a lock over the core yet
	return c, nil
}

// stamp returns a fresh unique timestamp (monotone even if the clock stalls).
func (c *Core) stamp() int64 {
	now := c.cfg.Clock.Now()
	if now <= c.lastTS {
		now = c.lastTS + 1
	}
	c.lastTS = now
	return now
}

// execAction performs one Central Client action against the master replica,
// appending the generated messages to the CC log.
func (c *Core) execAction(a constraint.Action) {
	if a.Kind != constraint.ActionInsert {
		return
	}
	record := func(m sync.Message) {
		m.Origin = "cc"
		m.TS = c.stamp()
		c.ccLog = append(c.ccLog, m)
	}
	ins, err := c.master.Insert(c.ccGen.Next())
	if err != nil {
		panic(fmt.Sprintf("server: cc insert: %v", err))
	}
	record(ins)
	cur := ins.Row
	for col, cell := range a.Seed {
		if !cell.Set {
			continue
		}
		m, ferr := c.master.Fill(cur, col, cell.Val, c.ccGen.Next())
		if ferr != nil {
			panic(fmt.Sprintf("server: cc seed fill: %v", ferr))
		}
		record(m)
		cur = m.NewRow
	}
	if a.Upvote {
		m, uerr := c.master.Upvote(cur)
		if uerr != nil {
			panic(fmt.Sprintf("server: cc upvote: %v", uerr))
		}
		m.Auto = true
		record(m)
	}
}

// runCC repairs the PRI until stable, returning the CC messages generated.
// Failing to converge within maxRepairIters is counted and logged (it means
// the PRI may be violated until a later message shakes things loose).
func (c *Core) runCC() []sync.Message {
	start := c.metrics.now()
	before := len(c.ccLog)
	stable := false
	for iter := 0; iter < maxRepairIters; iter++ {
		actions := c.planner.Repair(c.master)
		c.metrics.repairScoped(c.planner.LastDirty(), c.planner.Unmatched())
		if len(actions) == 0 {
			stable = true
			break
		}
		for _, a := range actions {
			c.execAction(a)
		}
	}
	if !stable {
		c.repairOverruns++
		c.metrics.overrunCounted()
		c.warn.overrun = c.repairOverruns
	}
	c.metrics.repairDone(start, len(c.ccLog)-before, c.RepairStats())
	return c.ccLog[before:]
}

// Warnings are the operational notes core calls raised: a repair loop that
// hit its iteration cap, an estimate payload that could not be encoded.
// Writing them to the log and the flight recorder may block, and the core
// runs inside its driver's serving lock, so the core only holds them: the
// driver takes them under its lock (TakeWarnings, which blocks on nothing)
// and emits them after releasing it. A driver that holds no lock takes and
// emits them after each call. The zero value emits nothing.
type Warnings struct {
	overrun  int   // the overrun's ordinal, 0 = none
	estimate error // why the estimate was not broadcast, nil = none
	logf     func(format string, args ...any)
	metrics  *Metrics
}

// TakeWarnings hands over the warnings raised since the last call and
// clears them.
func (c *Core) TakeWarnings() Warnings {
	w := c.warn
	c.warn = Warnings{}
	w.logf, w.metrics = c.logf, c.metrics
	return w
}

// Emit writes each warning once: an overrun as a flight-recorder event
// (whose sink logs the line), or as a log line when instrumentation is off;
// a skipped estimate as a log line.
func (w Warnings) Emit() {
	if w.overrun > 0 {
		if rec := w.metrics.Recorder(); rec != nil {
			rec.Record(metrics.EvRepairOverrun, "cc", "central client repair did not converge")
		} else {
			w.logf("crowdfill: central client repair did not converge within %d iterations (overrun #%d)",
				maxRepairIters, w.overrun)
		}
	}
	if w.estimate != nil {
		w.logf("crowdfill: estimate not broadcast: %v", w.estimate)
	}
}

// RepairOverruns returns how many times the Central Client's repair loop hit
// its iteration cap without converging.
func (c *Core) RepairOverruns() int { return c.repairOverruns }

// RepairStats summarizes the Central Client's PRI-repair work over the run.
type RepairStats struct {
	Repairs  int // Repair calls
	Augments int // augmenting-path searches run
	Inserts  int // row insertions planned
	Removals int // template rows dropped (§4.2 last resort)
	Overruns int // repair loops that hit the iteration cap
}

// RepairStats returns the Central Client's repair counters (for reports and
// experiment summaries).
func (c *Core) RepairStats() RepairStats {
	return RepairStats{
		Repairs:  c.planner.Repairs,
		Augments: c.planner.Augments,
		Inserts:  c.planner.Inserts,
		Removals: c.planner.Removals,
		Overruns: c.repairOverruns,
	}
}

// checkDone evaluates the completion condition: the final table derived from
// the master copy satisfies the (active) constraint template. The decision
// is always Template.SatisfiedBy's, but it is only re-made when one of its
// two inputs moved since the last decision — the index's final-winner
// counter or the planner's removal count — and not at all while the final
// table has fewer rows than the template (an injective map needs |T|
// targets).
func (c *Core) checkDone() {
	if c.done {
		return
	}
	finalVer, removals := c.index.FinalVersion(), c.planner.RemovedCount()
	finalRows, tmplRows := c.index.FinalRows(), c.planner.ActiveRows()
	outcome := doneCheckFull
	switch {
	case c.doneDecided && finalVer == c.doneFinalVer && removals == c.doneRemovals:
		outcome = doneCheckUnchanged
	case finalRows < tmplRows:
		outcome = doneCheckShort
	default:
		c.done = c.planner.SatisfiedBy(c.index.FinalTable())
	}
	c.doneDecided, c.doneFinalVer, c.doneRemovals = true, finalVer, removals
	c.metrics.doneChecked(outcome, finalRows, tmplRows)
}

// AddClient registers a client connection for a worker and returns the
// messages to send it: a full state snapshot plus the current estimates.
func (c *Core) AddClient(clientID, workerID string) []Outbound {
	c.clients[clientID] = workerID
	now := c.stamp()
	if _, ok := c.joinTime[workerID]; !ok {
		c.joinTime[workerID] = now
	}
	c.est.Join(workerID, now)
	c.metrics.clientCount(len(c.clients))
	// Snapshots are immutable to receivers (LoadSnapshot copies the rows and
	// shares their vectors, which nobody writes),
	// so one epoch-tagged Prepared serves every joiner until the table moves
	// again; a join storm encodes the table once, not once per joiner.
	if c.snapPrep == nil || c.snapEpoch != c.master.Epoch() {
		c.snapEpoch = c.master.Epoch()
		c.snapPrep = sync.NewPrepared(sync.Message{Type: sync.MsgSnapshot, Snapshot: c.master.TakeSnapshot()})
	}
	est := new(sync.Estimates)
	c.est.Current(est)
	out := []Outbound{
		{To: clientID, Msg: c.snapPrep.Message(), Prepared: c.snapPrep},
		{To: clientID, Msg: sync.Message{Type: sync.MsgEstimate, Estimates: est}},
	}
	if c.done {
		out = append(out, Outbound{To: clientID, Msg: sync.Message{Type: sync.MsgDone}})
	}
	return out
}

// RemoveClient unregisters a client connection.
func (c *Core) RemoveClient(clientID string) {
	delete(c.clients, clientID)
	c.metrics.clientCount(len(c.clients))
}

// HandleBroadcast processes one message from a client: it stamps it, applies
// it to the master table, records it in the trace, lets the Central Client
// repair the PRI, recomputes estimates, checks completion, and returns the
// broadcasts to publish (the message to all other clients, CC messages and
// updated estimates to everyone, and MsgDone when collection finishes). The
// result size depends only on the CC's repair work — never on the number of
// connected clients — which is what lets the network layer publish in O(1)
// into the sequenced log. The returned slice is reused by the next call:
// callers publish or fan it out first.
func (c *Core) HandleBroadcast(clientID string, m sync.Message) ([]Broadcast, error) {
	if c.done {
		return nil, nil // late messages after completion are dropped
	}
	worker, ok := c.clients[clientID]
	if !ok {
		return nil, fmt.Errorf("server: unknown client %q", clientID)
	}
	switch m.Type {
	case sync.MsgReplace, sync.MsgUpvote, sync.MsgDownvote, sync.MsgInsert,
		sync.MsgUnupvote, sync.MsgUndownvote:
	default:
		return nil, fmt.Errorf("server: clients may not send %v messages", m.Type)
	}
	m.Origin = clientID
	m.Worker = worker
	m.TS = c.stamp()

	if err := c.master.Apply(m); err != nil {
		return nil, err
	}
	c.trace = append(c.trace, m)
	c.metrics.msgHandled(m.Type)
	// The estimate shown for this action; observed post-apply (the worker
	// computed theirs against an equally slightly-stale local view).
	c.est.Observe(m)

	ccMsgs := c.runCC()
	c.checkDone()

	out := append(c.bcasts[:0], Broadcast{Prepared: sync.NewPrepared(m), Exclude: clientID})
	for _, cm := range ccMsgs {
		out = append(out, Broadcast{Prepared: sync.NewPrepared(cm)})
	}
	if estP := c.estimateBroadcast(); estP != nil {
		out = append(out, Broadcast{Prepared: estP})
	}
	if c.done {
		out = append(out, Broadcast{Prepared: sync.NewPrepared(sync.Message{Type: sync.MsgDone})})
	}
	c.bcasts = out
	return out, nil
}

// estimateBroadcast decides whether this message's estimate update goes out,
// returning the shared prepared message or nil to skip. Skipping when the
// payload matches the last broadcast is invisible to clients — they simply
// replace their stored estimates — but eliminates the dominant fan-out cost
// on workloads where estimates rarely move. A forced broadcast every
// estimateInterval messages bounds staleness for any client that somehow
// missed one. The figures land in core-owned scratch and are compared by
// their bits, so a suppressed decision allocates and encodes nothing. A
// payload that cannot be encoded is skipped with a warning, never published:
// every flusher would fail on it and drop its client.
func (c *Core) estimateBroadcast() *sync.Prepared {
	c.sinceEstBcast++
	now := &c.estNow
	c.est.Current(now)
	if c.lastEst != nil && sameFigures(now, c.lastEst) && c.sinceEstBcast < estimateInterval {
		c.metrics.estimateDecision(false, 0)
		return nil
	}
	if err := sync.ValidateEncodable(sync.Message{Type: sync.MsgEstimate, Estimates: now}); err != nil {
		c.warn.estimate = err
		return nil
	}
	c.lastEst = &sync.Estimates{PerColumn: slices.Clone(now.PerColumn), Upvote: now.Upvote, Downvote: now.Downvote}
	c.sinceEstBcast = 0
	p := sync.NewPrepared(sync.Message{Type: sync.MsgEstimate, Estimates: c.lastEst})
	payload, _ := p.Payload() // validated above
	c.metrics.estimateDecision(true, len(payload))
	return p
}

// sameFigures reports whether two payloads encode to the same bytes:
// shortest float text is injective on finite values, and −0 and 0 differ in
// text and bits alike. (A NaN never matches the published figures, which
// are finite, so it reaches the encodability check.)
func sameFigures(a, b *sync.Estimates) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return same(a.Upvote, b.Upvote) && same(a.Downvote, b.Downvote) && slices.EqualFunc(a.PerColumn, b.PerColumn, same)
}

// Done reports whether enough data has been collected.
func (c *Core) Done() bool { return c.done }

// Master exposes the master replica (read-only for callers).
func (c *Core) Master() *sync.Replica { return c.master }

// FinalTable derives the final table from the master copy. The slice is the
// caller's to keep (the maintained index's cache is copied).
func (c *Core) FinalTable() []*model.Row {
	return append([]*model.Row(nil), c.index.FinalTable()...)
}

// Satisfied reports whether the final table satisfies the active constraint.
func (c *Core) Satisfied() bool {
	return c.planner.SatisfiedBy(c.index.FinalTable())
}

// Trace returns the stamped worker-message trace (the set M of §5.2).
func (c *Core) Trace() []sync.Message { return c.trace }

// CCLog returns the Central Client's stamped messages.
func (c *Core) CCLog() []sync.Message { return c.ccLog }

// JoinTimes returns each worker's first-join timestamp.
func (c *Core) JoinTimes() map[string]int64 { return c.joinTime }

// StartTime returns the collection start timestamp.
func (c *Core) StartTime() int64 { return c.start }

// Estimator exposes the online estimator (for experiment reports).
func (c *Core) Estimator() *pay.Estimator { return c.est }

// Planner exposes the Central Client's planner (for stats and PRI checks).
func (c *Core) Planner() *constraint.Planner { return c.planner }

// Clients returns the number of connected clients.
func (c *Core) Clients() int { return len(c.clients) }

// ComputePay runs the §5.2 final-compensation calculation over the run.
func (c *Core) ComputePay() (*pay.Allocation, error) {
	return pay.Compute(pay.Input{
		Schema:        c.cfg.Schema,
		Budget:        c.cfg.Budget,
		Scheme:        c.cfg.Scheme,
		Final:         c.FinalTable(),
		Trace:         c.trace,
		CCLog:         c.ccLog,
		JoinTime:      c.joinTime,
		Start:         c.start,
		SplitKey:      c.cfg.SplitKey,
		SplitNonKey:   c.cfg.SplitNonKey,
		SplitByColumn: c.cfg.SplitByColumn,
	})
}

// ComputePayWith recomputes compensation under a different scheme over the
// same trace (used by the §6 scheme-comparison experiments).
func (c *Core) ComputePayWith(scheme pay.Scheme) (*pay.Allocation, error) {
	return pay.Compute(pay.Input{
		Schema:        c.cfg.Schema,
		Budget:        c.cfg.Budget,
		Scheme:        scheme,
		Final:         c.FinalTable(),
		Trace:         c.trace,
		CCLog:         c.ccLog,
		JoinTime:      c.joinTime,
		Start:         c.start,
		SplitKey:      c.cfg.SplitKey,
		SplitNonKey:   c.cfg.SplitNonKey,
		SplitByColumn: c.cfg.SplitByColumn,
	})
}
