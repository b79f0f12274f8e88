package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"crowdfill/internal/metrics"
)

// dropsPrefix is the labelled counter family of client drops and rejects.
const dropsPrefix = "crowdfill_client_drops_total"

// lifecycleWorkload is paper5 and table200: full client.Runner workers
// replaying a simulated crowd's script, one whole collection lifecycle
// after another.
type lifecycleWorkload struct {
	name      string
	st        *stack
	sc        scale
	table     bool      // table200: the large values/predicates template
	lateMarks []float64 // script fractions at which one more client joins
	visitors  int       // clients that join and leave at the last mark
	perSetup  int       // scripts generated per set-up
	// scripts pools every set-up's scripts; the measured phase cycles
	// through them. One simulated crowd's trajectory moves the latency
	// distribution's shape by ±15 %, so a run measures several.
	scripts []*script
}

// subSeedSpace bounds set-ups × scripts per seed, keeping different seeds'
// crowds disjoint.
const subSeedSpace = 64

func (w *lifecycleWorkload) setUp(seed int64, round int) error {
	for j := range w.perSetup {
		sub := seed*subSeedSpace + int64(round*w.perSetup+j)
		cfg := paper5Config(sub)
		if w.table {
			var err error
			if cfg, err = table200Config(sub, w.sc.table); err != nil {
				return err
			}
		}
		sc, err := genScript(cfg, w.lateMarks)
		if err != nil {
			return err
		}
		sc.visitors = w.visitors
		w.scripts = append(w.scripts, sc)
	}
	return w.st.warmLifecycle(w.scripts[len(w.scripts)-1], w.sc.warmOps)
}

func (w *lifecycleWorkload) tearDown() { w.scripts = nil }

func (w *lifecycleWorkload) inputHash() string {
	h := ""
	for _, sc := range w.scripts {
		h += sc.hash[:4]
	}
	return h
}

func (w *lifecycleWorkload) scriptGenS() float64 {
	var s float64
	for _, sc := range w.scripts {
		s += sc.genS
	}
	return s
}

// outcomeOf turns measured lifecycles into the end-to-end values, gated and
// ungated.
func (w *lifecycleWorkload) outcomeOf(res *lifecycleRun, window regDelta) (*outcome, error) {
	out := &outcome{values: map[string]float64{}, failures: res.failures}
	if err := out.deliver(res.deliver, res.ends, w.sc.minBeyond); err != nil {
		return nil, err
	}
	out.values["ops_per_s"] = medianFloat(res.rates)
	out.values["allocs_per_op"] = float64(res.mallocs) / float64(res.ops)
	out.values["join_p50_us"] = summarize(res.joins, 0.5).P50 / 1e3
	out.values["collection_p50_ms"] = summarize(res.collections, 0.5).P50 / 1e6
	out.attempted = res.ops + len(res.deliver) + len(res.joins)
	out.drops(window)
	flat := summarize(res.deliver, 0.99)
	out.note("%d collections (%d scripts), %d ops; deliver: %d samples in %d rounds (over all samples: p50 %.1f us, p99 %.1f us); join: %d samples",
		len(res.collections), len(w.scripts), res.ops, flat.N, len(res.ends), flat.P50/1e3, flat.Tail/1e3, len(res.joins))
	return out, nil
}

func (w *lifecycleWorkload) measure(d time.Duration) (*outcome, error) {
	before := w.st.reg.Snapshot()
	res, err := w.st.measureLifecycle(w.scripts, d, w.sc.minBeyond, nil)
	if err != nil {
		return nil, err
	}
	return w.outcomeOf(res, regDelta{before, w.st.reg.Snapshot()})
}

func (w *lifecycleWorkload) ledger(d time.Duration, outDir string) (*outcome, error) {
	before := w.st.reg.Snapshot()
	plain, err := w.st.measureLifecycle(w.scripts, d/3, w.sc.minBeyond, nil)
	if err != nil {
		return nil, err
	}
	mid := w.st.reg.Snapshot()
	out, err := w.outcomeOf(plain, regDelta{before, mid})
	if err != nil {
		return nil, err
	}
	t := newTracer()
	traced, err := w.st.measureLifecycle(w.scripts, d/3, w.sc.minBeyond, t)
	if err != nil {
		return nil, err
	}
	window := regDelta{mid, w.st.reg.Snapshot()}
	tracedOut, err := w.outcomeOf(traced, window)
	if err != nil {
		return nil, err
	}
	out.absorb(tracedOut)

	// The replay measurements run on the first script and the stream the
	// probe recorded while that script's first collection ran.
	first := w.scripts[0]
	in := &layerInputs{spec: first.spec, clients: first.workers, stream: traced.stream}
	for _, op := range first.ops {
		in.ops = append(in.ops, sentMsg{worker: first.workers[op.Worker], msg: op.Msg})
	}
	led := ledgerInputs{
		t: t, in: in, budget: w.sc.replay, reg: w.st.reg, window: window, windowOps: traced.ops,
		ops: plain.ops, wallNs: plain.opNs,
		plainDeliver: plain.deliver, tracedDeliver: traced.deliver,
		probeDispatches: traced.probeDispatches, probeMsgs: traced.msgs,
		late: traced.late.samples, scriptGenS: w.scriptGenS(),
	}
	if err := led.compose(out); err != nil {
		return nil, err
	}
	return out, writeTrace(t, outDir, w.name, out)
}

// fanWorkload is fanout64 and burst64: two full-client senders and a herd
// of thin subscribers on one small collection.
type fanWorkload struct {
	name   string
	st     *stack
	sc     scale
	bursts bool
	in     *fanInputs
	run    *fanRun
}

func (w *fanWorkload) kinds() []segKind {
	if w.bursts {
		return []segKind{segBurst}
	}
	return []segKind{segOpen, segClosed}
}

func (w *fanWorkload) setUp(seed int64, _ int) error {
	w.tearDown() // every set-up builds the topology afresh
	w.in = genFanInputs(seed)
	var err error
	w.run, err = w.st.fanUp(w.in, w.sc.fan, nil)
	return err
}

func (w *fanWorkload) tearDown() {
	if w.run != nil {
		w.run.down()
		w.run = nil
	}
}

func (w *fanWorkload) inputHash() string { return w.in.hash }

// outcomeOf turns measured rounds into the end-to-end values, gated and
// ungated.
func (w *fanWorkload) outcomeOf(res *fanResult, window regDelta) (*outcome, error) {
	out := &outcome{values: map[string]float64{}, failures: res.failures}
	if err := out.deliver(res.deliver, res.ends, w.sc.minBeyond); err != nil {
		return nil, err
	}
	ops := res.paced.ops + res.saturated.ops
	// The median over segments: one stalled segment must not move the run's
	// rate.
	out.values["ops_per_s"] = medianFloat(res.rates)
	if w.bursts {
		drain := summarize(res.drains, 0.90)
		if !supports(drain.N, 90, w.sc.minBeyond) {
			return nil, fmt.Errorf("%d bursts do not carry a p90: run longer", drain.N)
		}
		out.values["burst_drain_p50_us"] = drain.P50 / 1e3
		out.values["burst_drain_p90_us"] = drain.Tail / 1e3
	} else {
		out.values["sat_ops_per_s"] = out.values["ops_per_s"]
	}
	out.values["allocs_per_op"] = float64(res.mallocs) / float64(max(1, ops))
	out.attempted = ops * (w.sc.fan.subscribers + 1)
	out.drops(window)
	late := summarize(res.late.samples, 0.99)
	flat := summarize(res.deliver, 0.99)
	out.note("paced: %d ops; saturated: %d ops; bursts: %d; deliver: %d samples in %d rounds (over all samples: p50 %.1f us, p99 %.1f us); open-loop lateness p50 %.1f us, p99 %.1f us",
		res.paced.ops, res.saturated.ops, len(res.drains), flat.N, len(res.ends), flat.P50/1e3, flat.Tail/1e3, late.P50/1e3, late.Tail/1e3)
	return out, nil
}

func (w *fanWorkload) measure(d time.Duration) (*outcome, error) {
	before := w.st.reg.Snapshot()
	res := &fanResult{}
	if err := w.run.measureFan(w.kinds(), w.sc.fan, d, res); err != nil {
		return nil, err
	}
	w.run.verify(res)
	return w.outcomeOf(res, regDelta{before, w.st.reg.Snapshot()})
}

func (w *fanWorkload) ledger(d time.Duration, outDir string) (*outcome, error) {
	before := w.st.reg.Snapshot()
	plain := &fanResult{}
	if err := w.run.measureFan(w.kinds(), w.sc.fan, d/3, plain); err != nil {
		return nil, err
	}
	w.run.verify(plain)
	out, err := w.outcomeOf(plain, regDelta{before, w.st.reg.Snapshot()})
	w.tearDown()
	if err != nil {
		return nil, err
	}

	// The traced pass gets its own topology: the senders' links are wrapped
	// and the probe is one more recipient.
	t := newTracer()
	run, err := w.st.fanUp(w.in, w.sc.fan, t)
	if err != nil {
		return nil, err
	}
	w.run = run
	traced := &fanResult{}
	before = w.st.reg.Snapshot()
	paced, sat := w.kinds()[:1], w.kinds()[1:]
	share := d / 3
	if len(sat) > 0 {
		share = d / 4
	}
	if err := run.measureFan(paced, w.sc.fan, share, traced); err != nil {
		return nil, err
	}
	window := regDelta{before, w.st.reg.Snapshot()}
	satWindow := regDelta{window.after, window.after}
	if len(sat) > 0 {
		if err := run.measureFan(sat, w.sc.fan, d/12, traced); err != nil {
			return nil, err
		}
		satWindow.after = w.st.reg.Snapshot()
	}
	run.verify(traced)
	w.tearDown() // joins the probe's poller: its counters are readable now
	tracedOut, err := w.outcomeOf(traced, regDelta{before, satWindow.after})
	if err != nil {
		return nil, err
	}
	out.absorb(tracedOut)

	t.mu.Lock()
	sent := t.sent
	t.mu.Unlock()
	if len(sent) < fanSenders {
		return nil, errors.New("traced pass recorded no sent messages")
	}
	in := &layerInputs{spec: w.in.spec, clients: []string{"s0", "s1"}, pre: sent[:fanSenders], stream: run.pr.stream}
	// The recorded ops start right after the seeding fills (warm-up
	// included), so any prefix of them replays cleanly on a fresh core.
	in.ops = sent[fanSenders:min(len(sent), fanSenders+maxReplayOps)]
	led := ledgerInputs{
		t: t, in: in, budget: w.sc.replay, reg: w.st.reg, window: window, windowOps: traced.paced.ops, satWindow: &satWindow,
		ops: plain.paced.ops + plain.saturated.ops, wallNs: plain.paced.wallNs + plain.saturated.wallNs,
		plainDeliver: plain.deliver, tracedDeliver: traced.deliver,
		probeDispatches: run.pr.dispatches, probeMsgs: run.pr.msgs,
		late: traced.late.samples, scriptGenS: w.in.genS,
	}
	if err := led.compose(out); err != nil {
		return nil, err
	}
	return out, writeTrace(t, outDir, w.name, out)
}

func writeTrace(t *tracer, outDir, workload string, out *outcome) error {
	path, err := t.write(outDir, workload)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	out.note("%d spans written to %s (%d more dropped)", len(t.spans), path, t.dropped)
	return nil
}

// ledgerInputs is everything the per-layer ledger is composed from.
type ledgerInputs struct {
	t         *tracer
	in        *layerInputs
	budget    time.Duration // per replay measurement
	reg       *metrics.Registry
	window    regDelta  // the registry over the traced pass's paced phase
	windowOps int       // ops inside window
	satWindow *regDelta // fanout64: over its closed-loop phase
	// ops and wallNs are the untraced third's: its ops and the time they
	// were in flight (joins, pay and shutdown excluded).
	ops    int
	wallNs int64

	plainDeliver, tracedDeliver []int64
	probeDispatches, probeMsgs  int
	late                        []int64
	scriptGenS                  float64
}

// compose runs the replay measurements and fills every per-layer value.
func (l *ledgerInputs) compose(out *outcome) error {
	v := out.values
	perOp := func(x float64) float64 { return x / float64(max(1, l.windowOps)) }

	core, err := replayCore(l.in, l.budget)
	if err != nil {
		return err
	}
	sl, err := replaySync(l.in, l.budget)
	if err != nil {
		return err
	}
	wl, err := replayWire(sl.payloads, l.budget)
	if err != nil {
		return err
	}
	dispatchUs, err := replayDispatch(l.budget)
	if err != nil {
		return err
	}

	v["sync.encode_ns_per_msg"] = sl.encodeNs
	v["sync.decode_ns_per_msg"] = sl.decodeNs
	v["sync.wire_bytes_per_msg"] = sl.wireBytes
	v["sync.apply_ns_per_msg"] = sl.applyNs
	v["sync.snapshot_encode_us"] = sl.snapEncodeUs
	v["sync.snapshot_load_us"] = sl.snapLoadUs
	v["sync.snapshot_bytes"] = sl.snapBytes
	v["model.index_ns_per_msg"] = sl.indexNs
	v["client.handle_ns_per_msg"] = sl.clientHandleNs

	v["wsock.write_ns_per_frame"] = wl.writeNs
	v["wsock.write_batch16_ns_per_frame"] = wl.writeBatch16Ns
	v["wsock.read_block_ns_per_frame"] = wl.readBlockNs
	v["wsock.read_poll_ns_per_frame"] = wl.readPollNs
	v["wsock.frames_out_per_op"] = perOp(l.window.counter("crowdfill_ws_frames_out_total"))
	v["wsock.bytes_out_per_op"] = perOp(l.window.counter("crowdfill_ws_bytes_out_total"))
	v["wsock.buf_grows"] = l.window.counter("crowdfill_ws_buf_grows_total")

	v["netpoll.dispatch_p50_us"] = dispatchUs
	v["netpoll.wakeups_per_op"] = perOp(l.window.counter("crowdfill_poll_wakeups_total"))
	v["netpoll.dispatches_per_op"] = perOp(l.window.counter("crowdfill_poll_dispatch_total"))
	v["netpoll.ready_batch_mean"] = histMean(l.window.hist("crowdfill_poll_ready_batch"))

	handle := summarize(core.handle, 0.99)
	var handleSum int64
	for _, h := range core.handle {
		handleSum += h
	}
	handleMean := float64(handleSum) / float64(len(core.handle))
	v["server.core_handle_p50_us"] = handle.P50 / 1e3
	v["server.core_handle_p99_us"] = handle.Tail / 1e3
	// From outside this is an estimate, and a low one: the live core shares
	// its CPUs and caches with the clients and runs slower than its
	// single-threaded replay.
	v["server.core_busy_share"] = handleMean * float64(l.ops) / float64(l.wallNs)
	v["server.addclient_us"] = core.addClientUs
	v["constraint.satisfied_by_us"] = core.satisfiedUs
	v["constraint.augments_per_msg"] = core.augments
	v["pay.compute_us"] = core.payUs
	v["replay.run_us"] = core.auditUs

	residence := summarize(l.t.samples[stageResidence], 0.99)
	v["server.residence_p50_us"] = residence.P50 / 1e3
	v["server.residence_p99_us"] = residence.Tail / 1e3
	// What the outside cannot see inside the residence: dispatch queue,
	// NetServer.mu wait, bcastLog.publish, flush-queue wait.
	v["server.plane_residual_p50_us"] = v["server.residence_p50_us"] - v["server.core_handle_p50_us"] -
		sl.decodeNs/1e3 - dispatchUs - wl.writeNs/1e3
	v["server.publish_p50_ns"] = float64(l.window.hist("crowdfill_bcast_publish_ns").Quantile(0.5))
	v["server.flush_batch_mean"] = histMean(l.window.hist("crowdfill_flush_batch_records"))
	if l.satWindow != nil {
		v["server.flush_batch_mean_sat"] = histMean(l.satWindow.hist("crowdfill_flush_batch_records"))
	}
	v["server.flush_sends_per_op"] = perOp(l.window.counter("crowdfill_flush_sends_total"))
	v["server.bcast_records_per_op"] = perOp(l.window.counter("crowdfill_bcast_records_total"))
	v["server.cursor_lag_p99"] = float64(l.window.hist("crowdfill_cursor_lag_records").Quantile(0.99))
	v["server.drops"] = l.window.counterPrefix(dropsPrefix)
	sentEst, skipped := l.window.counter("crowdfill_estimate_bcasts_total"), l.window.counter("crowdfill_estimate_skipped_total")
	if sentEst+skipped > 0 {
		v["server.estimate_sent_ratio"] = sentEst / (sentEst + skipped)
	}
	v["constraint.repair_p50_ns"] = float64(l.window.hist("crowdfill_repair_ns").Quantile(0.5))
	v["constraint.repair_actions_per_msg"] = histMean(l.window.hist("crowdfill_repair_actions"))
	v["pay.estimate_payload_bytes_mean"] = histMean(l.window.hist("crowdfill_estimate_payload_bytes"))
	v["metrics.snapshot_us"] = snapshotUs(l.reg, l.budget)

	v["client.build_ns_per_op"] = l.t.stageP50(stageBuild)
	v["transport.send_ns_per_msg"] = l.t.stageP50(stageSend)
	v["transport.recv_p50_us"] = l.t.stageP50(stageRecv) / 1e3
	v["client.apply_p50_us"] = l.t.stageP50(stageApply) / 1e3
	v["transport.recv_batch_msgs_mean"] = float64(l.probeMsgs) / float64(max(1, l.probeDispatches))

	plain, traced := summarize(l.plainDeliver, 0.5).P50/1e3, summarize(l.tracedDeliver, 0.5).P50/1e3
	v["gen.script_gen_s"] = l.scriptGenS
	v["gen.late_p99_us"] = summarize(l.late, 0.99).Tail / 1e3
	v["gen.traced_deliver_p50_us"] = traced
	if plain > 0 {
		v["gen.trace_overhead_pct"] = 100 * (traced - plain) / plain
	}
	v["gen.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))

	// The ledger: stage medians along the blocking path, their sum, and
	// what they leave unexplained of the traced pass's delivery median.
	var sum float64
	for _, name := range stageOrder {
		p50 := l.t.stageP50(name) / 1e3
		sum += p50
		out.note("ledger  %-18s p50 %10.2f us  (%d samples)", name, p50, len(l.t.samples[name]))
	}
	v["gen.unattributed_p50_us"] = traced - sum
	out.note("ledger  %-18s     %10.2f us", "stage sum", sum)
	out.note("ledger  %-18s     %10.2f us", "gen.unattributed", traced-sum)
	out.note("ledger  %-18s p50 %10.2f us  (= stage sum + unattributed; untraced %.2f us)", "deliver", traced, plain)
	return nil
}
