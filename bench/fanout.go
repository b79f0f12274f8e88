package main

import (
	"fmt"
	"runtime"
	gosync "sync"
	"sync/atomic"
	"time"

	"crowdfill/internal/client"
	"crowdfill/internal/model"
	"crowdfill/internal/server"
	"crowdfill/internal/sync"
	"crowdfill/internal/transport"
	"crowdfill/internal/wsock"
)

// Fan-out workload shape. Rates are per sender.
const (
	openRate    = 125.0 // fanout64 phase A: ops/s per sender (≈10–15 % of saturation in total)
	closedDepth = 32    // fanout64 phase B: ops in flight per sender
	burstSize   = 16    // burst64: toggles a sender emits back to back
	// closedCap bounds one closed-loop segment's stamp tables.
	closedCap = 1 << 15
	// spinBefore is how long before its slot an open-loop sender stops
	// sleeping and polls the clock, so timer wake-up jitter does not pose as
	// latency: the runtime rounds a parked thread's timer up to a
	// millisecond.
	spinBefore = 1500 * time.Microsecond
	// firstToggleSeq: a sender's seeding fill is its message 1.
	firstToggleSeq = 2
)

// fanRun is one set-up fan-out topology: the collection, two full-client
// senders, and the thin subscriber herd.
type fanRun struct {
	st      *stack
	in      *fanInputs
	ns      *server.NetServer
	t       *tracer
	pr      *probe
	senders [fanSenders]*fanSender
	subs    []*subscriber
	seg     atomic.Pointer[fanSeg]
	gapAt   [fanSenders]int // next open-loop gap of each sender's schedule
}

// resident is how many connections the server holds once set up.
func (f *fanRun) resident() int {
	n := fanSenders + len(f.subs)
	if f.pr != nil {
		n++
	}
	return n
}

// fanSender is one full client toggling a downvote on its own partial row.
type fanSender struct {
	*joined
	idx     int
	row     model.RowID
	vec     model.Vector
	toggles int64 // toggles sent so far; toggle n carries Seq n+firstToggleSeq
	traced  bool
	// build stamps of the current op (traced pass).
	buildStart, buildEnd int64
}

// build is the sender's Runner.Do closure: the vote toggle through the
// worker-client API (Downvote / UndoVote).
func (s *fanSender) build(c *client.Client) ([]sync.Message, error) {
	if s.traced {
		s.buildStart = nowNs()
	}
	var m sync.Message
	var err error
	if s.toggles%2 == 0 {
		m, err = c.Downvote(s.row)
	} else {
		m, err = c.UndoVote(s.vec)
	}
	if err != nil {
		return nil, err
	}
	if s.traced {
		s.buildEnd = nowNs()
	}
	return []sync.Message{m}, nil
}

// subscriber is one thin fan-out recipient: harness-owned receive, decode
// only, no replica. Each is drained by its own goroutine blocked in
// transport.Conn.Recv, i.e. by the Go runtime's netpoller. (The issue's
// first choice — the whole herd in poll mode on one single-worker
// netpoll.Poller — works, but that poller's epoll waiter and worker are two
// more OS threads competing for this box's 2 CPUs: in interleaved runs it
// delivered 25 % slower with twice the run-to-run spread, which would have
// been the harness's noise in every fan-out number.)
type subscriber struct {
	idx       int
	conn      transport.Conn
	joined    atomic.Bool
	closed    chan struct{}
	next      [fanSenders]atomic.Int64 // next Seq expected from each sender
	orderErrs atomic.Int64
}

// fanSeg is the delivery accounting of one segment of ops, shared by the
// subscribers' goroutines: counters are atomic, and each subscriber appends
// latencies to its own slice.
type fanSeg struct {
	base      [fanSenders]int64 // toggle index of the segment's first op
	sched     [fanSenders][]atomic.Int64
	count     [fanSenders][]atomic.Int32 // subscribers that decoded the op
	lat       [][]int64                  // per subscriber, one sample per op; nil: not recorded
	tokens    [fanSenders]chan struct{}  // closed loop: in-flight window
	burstLeft []atomic.Int32             // burst mode: deliveries of burst r still missing
	drain     []atomic.Int64             // burst mode: slot → burst r fully delivered
	lastDone  atomic.Int64
	completed atomic.Int64
	stray     atomic.Int64
	trace     *traceSeg
}

func (f *fanRun) onMsg(sub *subscriber, m *sync.Message) {
	if m.Type == sync.MsgSnapshot {
		sub.joined.Store(true)
		return
	}
	s := senderIndex(m.Worker)
	if s < 0 {
		return // estimate, done, Central Client
	}
	if m.Seq != sub.next[s].Load() {
		sub.orderErrs.Add(1)
	}
	sub.next[s].Store(m.Seq + 1)
	seg := f.seg.Load()
	if seg == nil {
		return // seeding and warm-up traffic
	}
	i := m.Seq - firstToggleSeq - seg.base[s]
	if i < 0 || i >= int64(len(seg.count[s])) {
		seg.stray.Add(1)
		return
	}
	now := nowNs()
	sched := seg.sched[s][i].Load()
	if seg.lat != nil {
		seg.lat[sub.idx] = append(seg.lat[sub.idx], now-sched)
	}
	if int(seg.count[s][i].Add(1)) != len(f.subs) {
		return
	}
	// This delivery was the op's last: it has reached every subscriber.
	for last := seg.lastDone.Load(); now > last && !seg.lastDone.CompareAndSwap(last, now); last = seg.lastDone.Load() {
	}
	if seg.trace != nil {
		seg.trace.ops[s*len(seg.count[0])+int(i)].done = now
	}
	if seg.burstLeft != nil {
		if r := i / burstSize; seg.burstLeft[r].Add(-1) == 0 {
			seg.drain[r].Store(now - sched)
		}
	}
	if seg.tokens[s] != nil {
		seg.tokens[s] <- struct{}{}
	}
	seg.completed.Add(1)
}

// senderIndex maps a sender's worker id ("s0", "s1") to its index, or -1.
func senderIndex(worker string) int {
	if len(worker) != 2 || worker[0] != 's' || worker[1] < '0' || worker[1] >= '0'+fanSenders {
		return -1
	}
	return int(worker[1] - '0')
}

// drain is the subscriber's receive loop. A broken link just ends it: the
// missing deliveries fail the segment that waits for them.
func (f *fanRun) drain(sub *subscriber) {
	defer close(sub.closed)
	for {
		m, err := sub.conn.Recv()
		if err != nil {
			return
		}
		f.onMsg(sub, &m)
	}
}

func (f *fanRun) addSubscriber(i int) error {
	ws, err := wsock.Dial(f.st.url(fmt.Sprintf("sub%d", i)))
	if err != nil {
		return err
	}
	sub := &subscriber{idx: i, conn: transport.WrapWS(ws), closed: make(chan struct{})}
	for s := range sub.next {
		sub.next[s].Store(1)
	}
	f.subs = append(f.subs, sub)
	go f.drain(sub)
	return nil
}

// fanUp builds the topology: collection, senders, subscriber herd (and the
// probe when tracing), each sender's seeded partial row, and an unmeasured
// warm-up of the whole path.
func (st *stack) fanUp(in *fanInputs, shape fanShape, t *tracer) (f *fanRun, err error) {
	f = &fanRun{st: st, in: in, t: t}
	if f.ns, err = st.open(in.spec); err != nil {
		return nil, err
	}
	built := f
	defer func() {
		if err != nil {
			built.down() // f itself is nil again on an error return
		}
	}()
	for s := range f.senders {
		j, jerr := st.join(in.spec.schema, fmt.Sprintf("s%d", s), 0, t.wrapSender())
		if jerr != nil {
			return nil, jerr
		}
		f.senders[s] = &fanSender{joined: j, idx: s, traced: t != nil}
	}
	for i := range shape.subscribers {
		if err = f.addSubscriber(i); err != nil {
			return nil, err
		}
	}
	if t != nil {
		if f.pr, err = st.attachProbe(t, in.spec.schema, true); err != nil {
			return nil, err
		}
	}
	if err = st.waitConns(f.resident()); err != nil {
		return nil, err
	}
	if err = await("subscribers joined", func() bool {
		for _, sub := range f.subs {
			if !sub.joined.Load() {
				return false
			}
		}
		return true
	}); err != nil {
		return nil, err
	}
	// Each sender gives one seeded row a key: downvotes need a non-empty
	// vector, the row stays partial (no auto-upvote), and under majority-3 a
	// single downvote leaves the score at 0, so the Central Client stays
	// quiet and every toggle is exactly one mutating broadcast.
	t.record(true)
	for s, snd := range f.senders {
		key := fmt.Sprintf("key-%d", s)
		var rows []*model.Row
		snd.runner.View(func(c *client.Client) { rows = c.Rows(nil) })
		if len(rows) < fanRows {
			return nil, fmt.Errorf("sender %d sees %d seeded rows, want %d", s, len(rows), fanRows)
		}
		old := rows[s].ID
		err = snd.runner.Do(func(c *client.Client) ([]sync.Message, error) {
			msgs, ferr := c.Fill(old, 0, key)
			if ferr == nil {
				snd.row, snd.vec = msgs[0].NewRow, msgs[0].Vec
			}
			return msgs, ferr
		})
		if err != nil {
			return nil, fmt.Errorf("seed fill: %w", err)
		}
	}
	if err = await("seeding fills delivered", f.delivered); err != nil {
		return nil, err
	}
	// Two closed-loop warm-up segments (outside any accounting window):
	// cold scheduler, unpaced GC and ungrown buffers inflate the first few
	// hundred ops.
	for range 2 {
		if _, err = f.closedLoop(shape.closed / 4); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return f, nil
}

// down tears the topology down and waits for every goroutine it owns.
func (f *fanRun) down() {
	f.ns.Shutdown()
	for _, snd := range f.senders {
		if snd != nil {
			snd.leave()
		}
	}
	for _, sub := range f.subs {
		sub.conn.Close()
		<-sub.closed
	}
	if f.pr != nil {
		f.pr.close()
	}
}

// delivered reports whether every subscriber has decoded everything the
// senders have sent so far.
func (f *fanRun) delivered() bool {
	for _, sub := range f.subs {
		for s, snd := range f.senders {
			if sub.next[s].Load() != snd.toggles+firstToggleSeq {
				return false
			}
		}
	}
	return true
}

// newSeg opens an accounting window for up to n ops per sender. Paced
// segments record one latency per (op, subscriber) and, in the traced
// pass, the ops' spans: the ledger explains the paced delivery median, so
// the closed loop's queued ops stay out of it.
func (f *fanRun) newSeg(n int, paced bool) *fanSeg {
	seg := &fanSeg{}
	for s := range f.senders {
		seg.base[s] = f.senders[s].toggles
		seg.sched[s] = make([]atomic.Int64, n)
		seg.count[s] = make([]atomic.Int32, n)
	}
	if paced {
		seg.lat = make([][]int64, len(f.subs))
	}
	if f.t != nil && paced {
		seg.trace = f.t.begin(fanSenders*n, func(worker string, seq int64) int {
			s := senderIndex(worker)
			if s < 0 {
				return -1
			}
			i := seq - firstToggleSeq - seg.base[s]
			if i < 0 || i >= int64(n) {
				return -1
			}
			return s*n + int(i)
		})
	}
	return seg
}

// send performs the sender's next toggle inside seg as op i, scheduled at
// sched.
func (f *fanRun) send(seg *fanSeg, snd *fanSender, i int, sched int64) error {
	seg.sched[snd.idx][i].Store(sched)
	if err := snd.runner.Do(snd.build); err != nil {
		return fmt.Errorf("sender %d op %d: %w", snd.idx, i, err)
	}
	if seg.trace != nil {
		o := &seg.trace.ops[snd.idx*len(seg.count[0])+i]
		o.sender, o.seq, o.sched = snd.worker, snd.toggles+firstToggleSeq, sched
		o.buildStart, o.buildEnd = snd.buildStart, snd.buildEnd
	}
	snd.toggles++
	return nil
}

// finish waits until all sent ops reached every subscriber, closes the
// window, and returns the time from start to the last delivery.
func (f *fanRun) finish(seg *fanSeg, sent [fanSenders]int, start int64) (int64, error) {
	total := int64(sent[0] + sent[1])
	err := await("segment deliveries", func() bool { return seg.completed.Load() >= total })
	f.seg.Store(nil)
	if err != nil {
		return 0, err
	}
	if seg.trace != nil {
		if err := f.t.end(seg.trace, int(total)); err != nil {
			return 0, err
		}
	}
	if n := seg.stray.Load(); n > 0 {
		return 0, fmt.Errorf("%d deliveries outside the segment window", n)
	}
	return seg.lastDone.Load() - start, nil
}

// eachSender runs fn once per sender concurrently and returns the first
// error.
func (f *fanRun) eachSender(fn func(*fanSender) (int, error)) ([fanSenders]int, error) {
	var wg gosync.WaitGroup
	var sent [fanSenders]int
	var errs [fanSenders]error
	for s, snd := range f.senders {
		waitGroupGo(&wg, func() { sent[s], errs[s] = fn(snd) })
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return sent, err
		}
	}
	return sent, nil
}

// waitUntil sleeps to just before the slot, then polls the clock up to it,
// yielding the processor to any runnable goroutine between looks.
func waitUntil(slot int64) {
	if d := slot - nowNs() - int64(spinBefore); d > 0 {
		time.Sleep(time.Duration(d))
	}
	for nowNs() < slot {
		runtime.Gosched()
	}
}

// segStats is what one segment measured.
type segStats struct {
	ops    int
	wallNs int64 // first scheduled send → last delivery
	lat    []int64
	drains []int64 // burst mode, per burst: slot → last subscriber decoded its last record
}

// openLoop runs one open-loop segment: each sender follows its own seeded
// schedule for d regardless of deliveries, and every (op, subscriber)
// latency is timed from the scheduled send.
func (f *fanRun) openLoop(d time.Duration, late *lateness) (segStats, error) {
	var slots [fanSenders][]int64
	start := nowNs() + int64(time.Millisecond)
	n := 0
	for s := range slots {
		at := start
		for at-start < int64(d) {
			slots[s] = append(slots[s], at)
			at += f.in.gaps[s][f.gapAt[s]%fanGaps]
			f.gapAt[s]++
		}
		n = max(n, len(slots[s]))
	}
	seg := f.newSeg(n, true)
	f.seg.Store(seg)
	var lates [fanSenders]lateness
	sent, err := f.eachSender(func(snd *fanSender) (int, error) {
		for i, slot := range slots[snd.idx] {
			waitUntil(slot)
			lates[snd.idx].add(slot, nowNs())
			if err := f.send(seg, snd, i, slot); err != nil {
				return i, err
			}
		}
		return len(slots[snd.idx]), nil
	})
	if err != nil {
		f.seg.Store(nil)
		return segStats{}, err
	}
	for s := range lates {
		late.samples = append(late.samples, lates[s].samples...)
	}
	wall, err := f.finish(seg, sent, start)
	return segStats{ops: sent[0] + sent[1], wallNs: wall, lat: seg.latencies()}, err
}

// latencies gathers the subscribers' samples (call after finish).
func (seg *fanSeg) latencies() []int64 {
	var all []int64
	for _, l := range seg.lat {
		all = append(all, l...)
	}
	return all
}

// closedLoop runs one closed-loop segment: each sender keeps closedDepth
// ops in flight for d (an op retires when all subscribers decoded it).
func (f *fanRun) closedLoop(d time.Duration) (segStats, error) {
	seg := f.newSeg(closedCap, false)
	for s := range seg.tokens {
		seg.tokens[s] = make(chan struct{}, closedDepth) // the in-flight window itself
		for range closedDepth {
			seg.tokens[s] <- struct{}{}
		}
	}
	f.seg.Store(seg)
	start := nowNs()
	sent, err := f.eachSender(func(snd *fanSender) (int, error) {
		for i := 0; i < closedCap; i++ {
			<-seg.tokens[snd.idx]
			now := nowNs()
			if now-start >= int64(d) {
				return i, nil
			}
			if err := f.send(seg, snd, i, now); err != nil {
				return i, err
			}
		}
		return closedCap, nil
	})
	if err != nil {
		f.seg.Store(nil)
		return segStats{}, err
	}
	wall, err := f.finish(seg, sent, start)
	return segStats{ops: sent[0] + sent[1], wallNs: wall}, err
}

// burstLoop runs rounds bursts: at each slot both senders emit burstSize
// toggles back to back; every latency is timed from the slot.
func (f *fanRun) burstLoop(rounds int, every time.Duration, late *lateness) (segStats, error) {
	n := rounds * burstSize
	seg := f.newSeg(n, true)
	seg.burstLeft = make([]atomic.Int32, rounds)
	seg.drain = make([]atomic.Int64, rounds)
	for r := range seg.burstLeft {
		seg.burstLeft[r].Store(fanSenders * burstSize)
	}
	f.seg.Store(seg)
	start := nowNs() + int64(time.Millisecond)
	var lates [fanSenders]lateness
	sent, err := f.eachSender(func(snd *fanSender) (int, error) {
		for r := range rounds {
			slot := start + int64(r)*int64(every)
			waitUntil(slot)
			lates[snd.idx].add(slot, nowNs())
			for j := range burstSize {
				if err := f.send(seg, snd, r*burstSize+j, slot); err != nil {
					return r*burstSize + j, err
				}
			}
		}
		return n, nil
	})
	if err != nil {
		f.seg.Store(nil)
		return segStats{}, err
	}
	for s := range lates {
		late.samples = append(late.samples, lates[s].samples...)
	}
	wall, err := f.finish(seg, sent, start)
	drains := make([]int64, rounds)
	for r := range drains {
		drains[r] = seg.drain[r].Load()
	}
	return segStats{ops: n * fanSenders, wallNs: wall, lat: seg.latencies(), drains: drains}, err
}

// fanResult accumulates the measured rounds of a fan-out workload.
type fanResult struct {
	deliver   []int64 // ns per (op, subscriber): open-loop or burst ops
	ends      []int   // len(deliver) at the end of each paced segment (a round of deliveries)
	drains    []int64 // ns per burst: slot → last subscriber decoded its last record
	late      lateness
	paced     segTotals // open-loop / burst segments
	saturated segTotals // closed-loop segments (fanout64 phase B)
	rates     []float64 // ops/s of each closed-loop segment; burst64: of each burst segment (ops ÷ Σ drain)
	mallocs   uint64
	failures  []string
}

type segTotals struct {
	ops    int
	wallNs int64
}

func (t *segTotals) add(s segStats) {
	t.ops += s.ops
	t.wallNs += s.wallNs
}

func (r *fanResult) fail(format string, args ...any) {
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// segKind selects what one segment of a round does.
type segKind int

const (
	segOpen   segKind = iota // fanout64 phase A
	segClosed                // fanout64 phase B
	segBurst                 // burst64
)

// fanShape sizes a round: how long each segment kind runs.
type fanShape struct {
	subscribers int
	open        time.Duration
	closed      time.Duration
	bursts      int // bursts per segBurst segment
	// burstEvery spaces bursts: at full scale far enough apart (a dozen
	// drain times) that each starts on an idle write plane, and close enough
	// that a third of a run (the traced pass's share) has a hundred of them.
	burstEvery time.Duration
}

var fullFanShape = fanShape{subscribers: fanSubscribers, open: time.Second, closed: 400 * time.Millisecond, bursts: 10, burstEvery: 40 * time.Millisecond}

// measureFan cycles through kinds for about d, accumulating into res. A
// fanout64 round is an open-loop segment (phase A) then a closed-loop one
// (phase B); a burst64 round is one burst segment.
func (f *fanRun) measureFan(kinds []segKind, shape fanShape, d time.Duration, res *fanResult) error {
	runtime.GC()
	start := time.Now()
	for time.Since(start) < d {
		m0 := mallocs()
		for _, kind := range kinds {
			var s segStats
			var err error
			switch kind {
			case segOpen:
				s, err = f.openLoop(shape.open, &res.late)
			case segClosed:
				s, err = f.closedLoop(shape.closed)
			case segBurst:
				s, err = f.burstLoop(shape.bursts, shape.burstEvery, &res.late)
			}
			if err != nil {
				return err
			}
			if kind == segClosed {
				res.saturated.add(s)
				res.rates = append(res.rates, float64(s.ops)/(float64(s.wallNs)/1e9))
			} else {
				res.paced.add(s)
				res.deliver = append(res.deliver, s.lat...)
				res.ends = append(res.ends, len(res.deliver))
			}
			if kind == segBurst {
				// Capacity under bursts: ops ÷ the time their bursts took to
				// drain. Unlike burst_drain_p50_us, a stalled burst counts.
				var drain int64
				for _, ns := range s.drains {
					drain += ns
				}
				res.rates = append(res.rates, float64(s.ops)/(float64(drain)/1e9))
			}
			res.drains = append(res.drains, s.drains...)
		}
		res.mallocs += mallocs() - m0
	}
	return nil
}

// verify checks the run's output: votes net to zero on every replica, every
// subscriber saw every broadcast exactly once in per-sender Seq order, and
// (in the caller, from the registry) nothing was dropped.
func (f *fanRun) verify(res *fanResult) {
	defer f.subscriberFailures(res)
	for _, snd := range f.senders {
		if snd.toggles%2 == 1 { // leave the row back at zero votes
			if err := snd.runner.Do(snd.build); err != nil {
				res.fail("closing undo: %v", err)
				return
			}
			snd.toggles++
		}
	}
	if err := await("final deliveries", f.delivered); err != nil {
		res.fail("%v", err)
	}
	var master string
	votes := 0
	f.ns.WithCore(func(c *server.Core) {
		master = c.Master().SnapshotText()
		c.Master().Table().Each(func(r *model.Row) { votes += r.Up + r.Down })
	})
	if votes != 0 {
		res.fail("master ends with %d votes, want 0", votes)
	}
	for _, snd := range f.senders {
		err := await("sender convergence", func() bool {
			var text string
			snd.runner.View(func(c *client.Client) { text = c.Replica().SnapshotText() })
			return text == master
		})
		if err != nil {
			res.fail("sender %d: %v", snd.idx, err)
		}
	}
}

// subscriberFailures reports per-subscriber order errors and shortfalls.
func (f *fanRun) subscriberFailures(res *fanResult) {
	for i, sub := range f.subs {
		if n := sub.orderErrs.Load(); n > 0 {
			res.fail("subscriber %d saw %d out-of-order or duplicated broadcasts", i, n)
		}
		for s, snd := range f.senders {
			if got := sub.next[s].Load() - 1; got != snd.toggles+1 {
				res.fail("subscriber %d got %d of sender %d's %d messages", i, got, s, snd.toggles+1)
			}
		}
	}
}
