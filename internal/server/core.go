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
	"maps"
	"math"
	"slices"

	"crowdfill/internal/constraint"
	"crowdfill/internal/metrics"
	"crowdfill/internal/model"
	"crowdfill/internal/pay"
	"crowdfill/internal/replay"
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
	// SplitKey/SplitNonKey are the §5.2.3 splitting factors.
	SplitKey, SplitNonKey float64
	// TrackPerformance enables per-worker performance scaling of the
	// displayed estimates (§5.3's noted refinement).
	TrackPerformance bool
	// Metrics is the instrument set the core (and any NetServer wrapping it)
	// reports into. Nil selects the process-wide set (ProcessMetrics); tests
	// and simulations pass their own registry-backed set for isolation.
	Metrics *Metrics
}

// Outbound is a private message the caller must deliver to one client — what
// AddClient returns for a joiner. Prepared is the once-encoded form of Msg;
// the join snapshot's is cached per epoch, so a join storm encodes it once.
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
	master  *sync.Replica
	planner *constraint.Planner
	ccGen   *sync.IDGen
	est     *pay.Estimator
	index   *model.TableIndex // incremental probable/final maintenance
	metrics *Metrics

	clients map[string]string // client id -> worker id
	log     replay.Log        // the bookkeeping record (§3.3), pay's only input
	bcasts  []Broadcast       // HandleBroadcast's result, reused by the next call

	// Estimate-broadcast coalescing state: this decision's figures (filled
	// in place) and the last broadcast ones.
	estNow  sync.Estimates
	lastEst *sync.Estimates

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

	lastTS int64
	done   bool
}

// maxRepairIters bounds one runCC convergence loop; hitting it is counted
// and logged rather than silently swallowed.
const maxRepairIters = 1000

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
	if cfg.Score == nil {
		cfg.Score = model.DefaultScore
	}
	score := cfg.Score
	if err := model.ValidateScore(score, 8); err != nil {
		return nil, err
	}
	// The index follows every mutation of the master. The planner's persistent
	// adjacency and matching follow its probable-set deltas, so each repair
	// costs O(delta), not table or template size; the estimator's denominator
	// tallies follow the same deltas instead of rescanning probable rows.
	master := sync.NewReplica(cfg.Schema)
	index := model.NewTableIndex(master.Table(), score)
	master.SetObserver(index)
	c := &Core{
		cfg:     cfg,
		master:  master,
		index:   index,
		planner: constraint.NewPlanner(cfg.Template, score, index),
		ccGen:   sync.NewIDGen("cc"),
		clients: make(map[string]string),
		log:     replay.Log{Start: cfg.Clock.Now(), JoinTime: make(map[string]int64)},
	}
	c.metrics = cfg.Metrics
	if c.metrics == nil {
		c.metrics = ProcessMetrics()
	}
	c.lastTS = c.log.Start
	c.est = pay.NewEstimator(cfg.Schema, score, cfg.Scheme, cfg.Budget, cfg.Template, c.log.Start, index)
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

// stamp returns a timestamp above every earlier one, even if the clock
// stalls: no two messages of the log, worker or Central Client, tie.
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
		c.log.CCLog = append(c.log.CCLog, m)
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
	before := len(c.log.CCLog)
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
	c.metrics.repairDone(start, len(c.log.CCLog)-before, c.RepairStats())
	return c.log.CCLog[before:]
}

// Warnings are the operational notes core calls raised: a repair loop that
// hit its iteration cap, an estimate payload that could not be encoded.
// Recording them in the flight recorder may block (its sink logs a line),
// and the core runs inside its driver's serving lock, so the core only
// holds them: the driver takes them under its lock (TakeWarnings, which
// blocks on nothing) and emits them after releasing it. A driver that holds
// no lock takes and emits them after each call. The zero value emits
// nothing.
type Warnings struct {
	overrun  int   // the overrun's ordinal, 0 = none
	estimate error // why the estimate was not broadcast, nil = none
	metrics  *Metrics
}

// TakeWarnings hands over the warnings raised since the last call and
// clears them.
func (c *Core) TakeWarnings() Warnings {
	w := c.warn
	c.warn = Warnings{}
	w.metrics = c.metrics
	return w
}

// Emit records each warning once as a flight-recorder event, whose sink
// logs the line. With instrumentation off there is no recorder, and the
// counters the core keeps (RepairStats) are the only trace.
func (w Warnings) Emit() {
	rec := w.metrics.Recorder()
	if rec == nil {
		return
	}
	if w.overrun > 0 {
		rec.Record(metrics.EvRepairOverrun, "cc", "central client repair did not converge")
	}
	if w.estimate != nil {
		rec.Record(metrics.EvEstimateSkipped, "cc", w.estimate.Error())
	}
}

// RepairStats summarizes the Central Client's PRI-repair work over the run.
type RepairStats struct {
	Repairs       int // Repair calls
	Augments      int // augmenting-path searches run
	AugmentVisits int // adjacency entries those searches read
	Inserts       int // row insertions planned
	Removals      int // template rows dropped (§4.2 last resort)
	Overruns      int // repair loops that hit the iteration cap
}

// RepairStats returns the Central Client's repair counters (for reports and
// experiment summaries).
func (c *Core) RepairStats() RepairStats {
	return RepairStats{
		Repairs:       c.planner.Repairs,
		Augments:      c.planner.Augments,
		AugmentVisits: c.planner.AugmentVisits,
		Inserts:       c.planner.Inserts,
		Removals:      c.planner.Removals,
		Overruns:      c.repairOverruns,
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
// messages to send it: a full state snapshot plus the current estimates, the
// same rounded figures the estimate broadcasts carry.
func (c *Core) AddClient(clientID, workerID string) []Outbound {
	c.clients[clientID] = workerID
	now := c.stamp()
	if _, ok := c.log.JoinTime[workerID]; !ok {
		c.log.JoinTime[workerID] = now
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
	estMsg := sync.Message{Type: sync.MsgEstimate, Estimates: est}
	return []Outbound{
		{To: clientID, Msg: c.snapPrep.Message(), Prepared: c.snapPrep},
		{To: clientID, Msg: estMsg, Prepared: sync.NewPrepared(estMsg)},
	}
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
// updated estimates to everyone; MsgDone is NetServer's Done transition's
// to send). The result size depends only on the CC's repair work — never on the number of
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
	if !m.Type.IsOp() {
		return nil, fmt.Errorf("server: clients may not send %v messages", m.Type)
	}
	m.Origin = clientID
	m.Worker = worker
	m.TS = c.stamp()

	if err := c.master.Apply(m); err != nil {
		return nil, err
	}
	c.log.Trace = append(c.log.Trace, m)
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
	c.bcasts = out
	return out, nil
}

// estimateBroadcast decides whether this message's estimate update goes out,
// returning the shared prepared message or nil to skip. The figures are the
// estimator's display figures, rounded to the cent (pay.Resolution), and go
// out only when one of them differs from the last broadcast: clients simply
// replace their stored estimates, so an unchanged payload tells them
// nothing. No periodic re-send is needed: the figures move only when a
// handled message moves them, and this decision follows every handled
// message, while a joiner is sent the current figures with its snapshot
// (AddClient). The figures land in core-owned scratch and are compared by
// their bits, so a suppressed decision allocates and encodes nothing. A
// payload that cannot be encoded is skipped with a warning, never published:
// every flusher would fail on it and drop its client.
func (c *Core) estimateBroadcast() *sync.Prepared {
	now := &c.estNow
	c.est.Current(now)
	if c.lastEst != nil && sameFigures(now, c.lastEst) {
		c.metrics.estimateDecision(false, 0)
		return nil
	}
	if err := sync.ValidateEncodable(sync.Message{Type: sync.MsgEstimate, Estimates: now}); err != nil {
		c.warn.estimate = err
		return nil
	}
	c.lastEst = &sync.Estimates{PerColumn: slices.Clone(now.PerColumn), Upvote: now.Upvote, Downvote: now.Downvote}
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

// Status summarizes a collection's progress, live or archived.
type Status struct {
	Done          bool `json:"done"`
	FinalRows     int  `json:"finalRows"`
	CandidateRows int  `json:"candidateRows"`
	Clients       int  `json:"clients"`
	Messages      int  `json:"messages"`
}

// Status returns the collection's progress.
func (c *Core) Status() Status {
	return Status{
		Done:          c.done,
		FinalRows:     c.index.FinalRows(),
		CandidateRows: c.master.Table().Len(),
		Clients:       len(c.clients),
		Messages:      len(c.log.Trace),
	}
}

// ResultRows returns the final table as rows of column values.
func (c *Core) ResultRows() [][]string {
	final := c.index.FinalTable()
	rows := make([][]string, len(final))
	for i, row := range final {
		rows[i] = row.Vec.Strings()
	}
	return rows
}

// Master exposes the master replica (read-only for callers).
func (c *Core) Master() *sync.Replica { return c.master }

// FinalTable derives the final table from the master copy. The slice is the
// caller's to keep (the maintained index's cache is copied).
func (c *Core) FinalTable() []*model.Row {
	return append([]*model.Row(nil), c.index.FinalTable()...)
}

// Trace returns the stamped worker-message trace (the set M of §5.2).
func (c *Core) Trace() []sync.Message { return c.log.Trace }

// CCLog returns the Central Client's stamped messages.
func (c *Core) CCLog() []sync.Message { return c.log.CCLog }

// JoinTimes returns each worker's first-join timestamp.
func (c *Core) JoinTimes() map[string]int64 { return c.log.JoinTime }

// Log returns a copy of the bookkeeping log (§3.3): the worker trace, the
// Central Client's log, the start and the join times — everything Audit
// needs to rebuild the table and recompute the exact pay.
func (c *Core) Log() replay.Log {
	return replay.Log{
		Trace:    slices.Clone(c.log.Trace),
		CCLog:    slices.Clone(c.log.CCLog),
		Start:    c.log.Start,
		JoinTime: maps.Clone(c.log.JoinTime),
	}
}

// Estimator exposes the online estimator (for experiment reports).
func (c *Core) Estimator() *pay.Estimator { return c.est }

// Planner exposes the Central Client's planner (for stats and PRI checks).
func (c *Core) Planner() *constraint.Planner { return c.planner }

// ComputePay prices the run so far: Audit over the core's own log.
func (c *Core) ComputePay() (*pay.Allocation, error) {
	a, err := Audit(c.cfg, c.log)
	if err != nil {
		return nil, err
	}
	return a.Alloc, nil
}

// Audit prices a collection from its bookkeeping log under cfg's scoring,
// budget, scheme and split factors (§3.3, §5.2): the one pricing path, so
// a live collection, its archive and an offline replay pay alike.
func Audit(cfg Config, log replay.Log) (*replay.Audit, error) {
	return replay.Run(replay.Input{
		Schema:      cfg.Schema,
		Score:       cfg.Score,
		Budget:      cfg.Budget,
		Scheme:      cfg.Scheme,
		SplitKey:    cfg.SplitKey,
		SplitNonKey: cfg.SplitNonKey,
		Trace:       log.Trace,
		CCLog:       log.CCLog,
		Start:       log.Start,
		JoinTime:    log.JoinTime,
	})
}
