package server

import (
	"os"
	gosync "sync"
	"time"

	"crowdfill/internal/metrics"
	"crowdfill/internal/sync"
	"crowdfill/internal/wsock"
)

// dropCause labels why the serving plane tore down — or refused work from —
// a client connection. The four previously ad-hoc logf sites (flusher lag
// drop, flusher send failure, publisher-side eviction, handler reject) all
// funnel through one structured note path (bcastLog.noteDrop /
// NetServer.noteReject) that feeds the drop counters, the flight recorder,
// and the log sink together.
type dropCause int

const (
	dropLag           dropCause = iota // cursor lagged behind the broadcast log
	dropSendError                      // transport send failed
	dropWriteDeadline                  // send hit the flusher write deadline
	dropReject                         // inbound message rejected (not a teardown)
	dropCauseN
)

// String returns the cause label used in metric names and log lines.
// Constant strings: safe on any path.
func (dc dropCause) String() string {
	switch dc {
	case dropLag:
		return "cursor-lag"
	case dropSendError:
		return "send-error"
	case dropWriteDeadline:
		return "write-deadline"
	case dropReject:
		return "handler-reject"
	}
	return "unknown"
}

// eventKind maps a cause to its flight-recorder event kind.
func (dc dropCause) eventKind() string {
	switch dc {
	case dropLag:
		return metrics.EvEvictLag
	case dropSendError:
		return metrics.EvSendError
	case dropWriteDeadline:
		return metrics.EvWriteDeadline
	case dropReject:
		return metrics.EvReject
	}
	return "unknown"
}

// doneCheck labels how one completion check was answered.
type doneCheck int

const (
	doneCheckUnchanged doneCheck = iota // neither final winners nor template moved: previous answer stands
	doneCheckShort                      // fewer final rows than template rows: not done, no matching built
	doneCheckFull                       // Template.SatisfiedBy ran its matching
	doneCheckN
)

// String returns the outcome label used in the metric name. Constant
// strings: safe on any path.
func (dc doneCheck) String() string {
	switch dc {
	case doneCheckUnchanged:
		return "unchanged"
	case doneCheckShort:
		return "short"
	case doneCheckFull:
		return "full"
	}
	return "unknown"
}

// msgTypeSlots sizes the per-type message counter array: message types are
// 1-based iota, so the highest type is a valid index.
const msgTypeSlots = int(sync.MsgUndownvote) + 1

// Metrics is the server's instrument set: one handle wiring the whole
// serving stack (broadcast log, flusher pool, core, estimator, wire layer)
// into a metrics.Registry and a flight recorder. A nil *Metrics disables
// instrumentation: every observe method is a nil-receiver no-op.
//
// The observe methods on the publish/flush paths are //lint:hotpath roots:
// hotalloc proves them transitively allocation-free, so they may sit on the
// zero-alloc serving paths.
type Metrics struct {
	reg *metrics.Registry
	rec *metrics.Recorder

	// Broadcast plane.
	pubCalls   *metrics.Counter   // publish calls
	pubRecords *metrics.Counter   // records published
	pubLatency *metrics.Histogram // publish call duration, ns
	logHead    *metrics.Gauge     // sequence number at the log head
	conns      *metrics.Gauge     // registered pooled connections
	parked     *metrics.Gauge     // parked (idle) pooled connections
	queueDepth *metrics.Gauge     // flush-queue depth
	cursorLag  *metrics.Histogram // records behind head, observed per flush round
	batchSize  *metrics.Histogram // coalesced messages per batched send
	flushes    *metrics.Counter   // batched sends
	drops      [dropCauseN]*metrics.Counter
	evictScans *metrics.Counter // amortized publisher-side lag scans

	// Core.
	msgs        [msgTypeSlots]*metrics.Counter // handled messages by type
	repairDur   *metrics.Histogram             // one runCC convergence loop, ns
	repairDelta *metrics.Histogram             // CC actions per convergence loop
	repairDirty *metrics.Histogram             // templates one planner Repair re-validated (0 = early exit)
	unmatched   *metrics.Gauge                 // templates waiting behind a planned CC insert after the last Repair
	repairs     *metrics.Gauge                 // planner Repair calls (RepairStats)
	augments    *metrics.Gauge
	inserts     *metrics.Gauge
	removals    *metrics.Gauge
	overruns    *metrics.Counter // repair loops that hit the iteration cap
	clients     *metrics.Gauge   // registered core clients
	finalRows   *metrics.Gauge   // final-table rows at the last completion check
	tmplRows    *metrics.Gauge   // active template rows at the last completion check
	doneChecks  [doneCheckN]*metrics.Counter

	// Readiness read plane (netpoll). The exported Poll* observe methods
	// implement netpoll.Stats.
	pollConns      *metrics.Gauge     // descriptors registered with the poller
	pollWakeups    *metrics.Counter   // epoll_wait returns with ready connections
	pollReadyBatch *metrics.Histogram // ready connections per wakeup
	pollDepth      *metrics.Gauge     // readiness dispatch-queue depth
	pollDispatches *metrics.Counter   // handler dispatches to poll workers

	// Estimator broadcast coalescing.
	estBcasts  *metrics.Counter
	estSkipped *metrics.Counter
	estBytes   *metrics.Histogram // estimate payload size when broadcast

	// Wire layer (attached to each upgraded WebSocket).
	wire *wsock.Stats
}

// NewMetrics registers the server instrument set in reg (get-or-create:
// multiple cores in one process share the series) with rec as the flight
// recorder. Both must be non-nil.
func NewMetrics(reg *metrics.Registry, rec *metrics.Recorder) *Metrics {
	m := &Metrics{
		reg:        reg,
		rec:        rec,
		pubCalls:   reg.Counter("crowdfill_bcast_publish_total", "broadcast-log publish calls"),
		pubRecords: reg.Counter("crowdfill_bcast_records_total", "broadcast records published"),
		pubLatency: reg.Histogram("crowdfill_bcast_publish_ns", "publish call latency", metrics.LatencyBuckets),
		logHead:    reg.Gauge("crowdfill_bcast_log_head", "sequence number at the broadcast-log head"),
		conns:      reg.Gauge("crowdfill_bcast_conns", "connections registered with the flusher pool"),
		parked:     reg.Gauge("crowdfill_bcast_parked", "idle pooled connections (no goroutine, cursor at head)"),
		queueDepth: reg.Gauge("crowdfill_flush_queue_depth", "dirty connections waiting for a flusher"),
		cursorLag:  reg.Histogram("crowdfill_cursor_lag_records", "records behind head at each flush round", metrics.CountBuckets),
		batchSize:  reg.Histogram("crowdfill_flush_batch_records", "messages coalesced per batched send", metrics.CountBuckets),
		flushes:    reg.Counter("crowdfill_flush_sends_total", "coalesced batch sends"),
		evictScans: reg.Counter("crowdfill_bcast_evict_scans_total", "amortized publisher-side lag scans"),

		repairDur:   reg.Histogram("crowdfill_repair_ns", "central-client convergence loop duration", metrics.LatencyBuckets),
		repairDelta: reg.Histogram("crowdfill_repair_actions", "central-client actions per convergence loop", metrics.CountBuckets),
		repairDirty: reg.Histogram("crowdfill_repair_dirty_templates", "template rows one planner Repair re-validated (0: nothing was dirty, it returned at once)", metrics.CountBuckets),
		unmatched:   reg.Gauge("crowdfill_core_unmatched_templates", "template rows the last planner Repair left waiting behind a planned central-client insert"),
		repairs:     reg.Gauge("crowdfill_repair_calls", "planner Repair calls (RepairStats.Repairs)"),
		augments:    reg.Gauge("crowdfill_repair_augments", "augmenting-path searches (RepairStats.Augments)"),
		inserts:     reg.Gauge("crowdfill_repair_inserts", "row insertions planned (RepairStats.Inserts)"),
		removals:    reg.Gauge("crowdfill_repair_removals", "template rows dropped (RepairStats.Removals)"),
		overruns:    reg.Counter("crowdfill_repair_overruns_total", "repair loops that hit the iteration cap"),
		clients:     reg.Gauge("crowdfill_core_clients", "registered clients"),
		finalRows:   reg.Gauge("crowdfill_core_final_rows", "final-table rows (completion needs at least crowdfill_core_template_rows)"),
		tmplRows:    reg.Gauge("crowdfill_core_template_rows", "active constraint-template rows (removed rows excluded)"),

		pollConns:      reg.Gauge("crowdfill_poll_conns", "connections registered with the readiness poller"),
		pollWakeups:    reg.Counter("crowdfill_poll_wakeups_total", "poller wakeups that delivered ready connections"),
		pollReadyBatch: reg.Histogram("crowdfill_poll_ready_batch", "ready connections per poller wakeup", metrics.CountBuckets),
		pollDepth:      reg.Gauge("crowdfill_poll_queue_depth", "ready connections waiting for a poll worker"),
		pollDispatches: reg.Counter("crowdfill_poll_dispatch_total", "readiness handler dispatches to poll workers"),

		estBcasts:  reg.Counter("crowdfill_estimate_bcasts_total", "estimate broadcasts sent"),
		estSkipped: reg.Counter("crowdfill_estimate_skipped_total", "estimate broadcasts suppressed (payload unchanged)"),
		estBytes:   reg.Histogram("crowdfill_estimate_payload_bytes", "estimate payload size when broadcast", metrics.SizeBuckets),

		wire: wsock.NewStats(reg),
	}
	for dc := dropCause(0); dc < dropCauseN; dc++ {
		m.drops[dc] = reg.Counter(
			`crowdfill_client_drops_total{cause="`+dc.String()+`"}`,
			"client drops and rejects by cause")
	}
	for dc := doneCheck(0); dc < doneCheckN; dc++ {
		m.doneChecks[dc] = reg.Counter(
			`crowdfill_core_done_checks_total{outcome="`+dc.String()+`"}`,
			"completion checks by how they were answered")
	}
	for t := sync.MsgInsert; t <= sync.MsgUndownvote; t++ {
		m.msgs[t] = reg.Counter(
			`crowdfill_core_msgs_total{type="`+t.String()+`"}`,
			"messages handled by type")
	}
	return m
}

// Registry returns the backing registry (nil-safe).
func (m *Metrics) Registry() *metrics.Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// Recorder returns the flight recorder (nil-safe).
func (m *Metrics) Recorder() *metrics.Recorder {
	if m == nil {
		return nil
	}
	return m.rec
}

// WireStats returns the wire-layer stats handle for wsock.Conn.SetStats
// (nil-safe).
func (m *Metrics) WireStats() *wsock.Stats {
	if m == nil {
		return nil
	}
	return m.wire
}

// ProcessMetrics returns the process-wide server metrics, registered against
// metrics.Default() and metrics.DefaultRecorder(). Instrumentation defaults
// to on; CROWDFILL_METRICS=off is the operator's switch to disable it, in
// which case nil is returned and every observe call is a no-op.
func ProcessMetrics() *Metrics {
	processMetricsOnce.Do(func() {
		if os.Getenv("CROWDFILL_METRICS") == "off" {
			return
		}
		processMetrics = NewMetrics(metrics.Default(), metrics.DefaultRecorder())
	})
	return processMetrics
}

var (
	processMetricsOnce gosync.Once
	processMetrics     *Metrics
)

// now returns the wall clock only when instrumentation is live, so disabled
// metrics cost not even a clock read on the hot paths.
func (m *Metrics) now() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

// publishDone records one publish call: records appended, call latency, and
// the new head position. Called after the log lock is released.
//
//lint:hotpath
func (m *Metrics) publishDone(start time.Time, records int, head uint64) {
	if m == nil {
		return
	}
	m.pubCalls.Inc()
	m.pubRecords.Add(uint64(records))
	m.pubLatency.Observe(int64(time.Since(start)))
	m.logHead.Set(int64(head))
}

// flushDone records one flush round: the coalesced batch size and how far
// the cursor still trails the head afterwards. Called outside the log lock.
//
//lint:hotpath
func (m *Metrics) flushDone(batch int, lag uint64) {
	if m == nil {
		return
	}
	m.flushes.Inc()
	m.batchSize.Observe(int64(batch))
	m.cursorLag.Observe(int64(lag))
}

// poolSized records the pool gauges after registry/parked-list changes.
//
//lint:hotpath
func (m *Metrics) poolSized(conns, parked int) {
	if m == nil {
		return
	}
	m.conns.Set(int64(conns))
	m.parked.Set(int64(parked))
}

// queueDelta adjusts the flush-queue depth gauge.
//
//lint:hotpath
func (m *Metrics) queueDelta(d int) {
	if m == nil {
		return
	}
	m.queueDepth.Add(int64(d))
}

// evictScanned counts one amortized publisher-side lag scan.
//
//lint:hotpath
func (m *Metrics) evictScanned() {
	if m == nil {
		return
	}
	m.evictScans.Inc()
}

// PollRegistered records the poller's registered-descriptor count; part of
// the netpoll.Stats implementation.
//
//lint:hotpath
func (m *Metrics) PollRegistered(n int) {
	if m == nil {
		return
	}
	m.pollConns.Set(int64(n))
}

// PollWakeup records one poller wakeup that delivered ready readiness
// events for ready connections.
//
//lint:hotpath
func (m *Metrics) PollWakeup(ready int) {
	if m == nil {
		return
	}
	m.pollWakeups.Inc()
	m.pollReadyBatch.Observe(int64(ready))
}

// PollQueueDelta adjusts the readiness dispatch-queue depth gauge.
//
//lint:hotpath
func (m *Metrics) PollQueueDelta(d int) {
	if m == nil {
		return
	}
	m.pollDepth.Add(int64(d))
}

// PollDispatch counts one readiness handler dispatch to a poll worker.
//
//lint:hotpath
func (m *Metrics) PollDispatch() {
	if m == nil {
		return
	}
	m.pollDispatches.Inc()
}

// msgHandled counts one successfully handled message by type.
//
//lint:hotpath
func (m *Metrics) msgHandled(t sync.MsgType) {
	if m == nil {
		return
	}
	if t > 0 && int(t) < msgTypeSlots {
		m.msgs[t].Inc()
	}
}

// repairScoped records the scope of one planner Repair call: how many
// template rows it re-validated, and how many it left unmatched behind the
// inserts it planned.
//
//lint:hotpath
func (m *Metrics) repairScoped(dirty, unmatched int) {
	if m == nil {
		return
	}
	m.repairDirty.Observe(int64(dirty))
	m.unmatched.Set(int64(unmatched))
}

// repairDone records one central-client convergence loop and refreshes the
// RepairStats gauges.
func (m *Metrics) repairDone(start time.Time, actions int, rs RepairStats) {
	if m == nil {
		return
	}
	m.repairDur.Observe(int64(time.Since(start)))
	m.repairDelta.Observe(int64(actions))
	m.repairs.Set(int64(rs.Repairs))
	m.augments.Set(int64(rs.Augments))
	m.inserts.Set(int64(rs.Inserts))
	m.removals.Set(int64(rs.Removals))
}

// doneChecked records one completion check: how it was answered, and the
// two row counts an operator compares to see how far the collection is from
// done.
//
//lint:hotpath
func (m *Metrics) doneChecked(outcome doneCheck, finalRows, templateRows int) {
	if m == nil {
		return
	}
	m.doneChecks[outcome].Inc()
	m.finalRows.Set(int64(finalRows))
	m.tmplRows.Set(int64(templateRows))
}

// clientCount records the number of registered core clients.
func (m *Metrics) clientCount(n int) {
	if m == nil {
		return
	}
	m.clients.Set(int64(n))
}

// estimateDecision records one estimate-broadcast decision: sent with a
// payload of size bytes, or suppressed.
func (m *Metrics) estimateDecision(sent bool, bytes int) {
	if m == nil {
		return
	}
	if sent {
		m.estBcasts.Inc()
		m.estBytes.Observe(int64(bytes))
	} else {
		m.estSkipped.Inc()
	}
}

// noteDrop is the single structured client-drop note: it bumps the cause's
// counter and records a flight-recorder event (whose log sink emits the one
// human-readable line). Callers hold no locks — the recorder sink may block.
func (m *Metrics) noteDrop(cause dropCause, clientID, detail string) {
	if m == nil {
		return
	}
	m.drops[cause].Inc()
	m.rec.Record(cause.eventKind(), clientID, detail)
}

// overrunCounted counts a repair-iteration-cap overrun. Its flight-recorder
// event is written by Warnings.Emit, after the serving lock is released.
func (m *Metrics) overrunCounted() {
	if m == nil {
		return
	}
	m.overruns.Inc()
}
