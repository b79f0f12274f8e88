package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	gosync "sync"
	"sync/atomic"
	"time"

	"crowdfill/internal/client"
	"crowdfill/internal/pay"
	"crowdfill/internal/server"
	"crowdfill/internal/sync"
)

// lifecycleRun accumulates what repeated collection lifecycles measured.
type lifecycleRun struct {
	ops     int     // script ops completed
	deliver []int64 // ns, one per (op, receiver) pair
	// A round is the fewest whole collections whose deliveries carry a p99:
	// ends[i] is len(deliver) at the end of round i, rates[i] its script
	// ops ÷ lifecycle wall time. Collections after the last full round are
	// in no round.
	ends        []int
	rates       []float64
	joins       []int64  // ns; initial joins, or late joins when the script has any
	late        lateness // pacing-loop lateness: previous op complete → next op sent
	collections []int64  // ns, first join → ComputePay returned
	wallNs      int64    // Σ collection + shutdown time
	opNs        int64    // Σ op sent → applied at every peer (the time ops were in flight)
	mallocs     uint64
	failures    []string

	// Traced pass only: the first collection's broadcast stream as the
	// probe received it, and the probe's batching counts.
	stream                []sync.Message
	probeDispatches, msgs int
}

func (r *lifecycleRun) fail(format string, args ...any) {
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// peer is one full client of a running collection plus its delivery
// waiter's state.
type peer struct {
	*joined
	idx  int // index into script.workers; -1 for a late joiner
	from int // first op this peer must observe
	lat  []int64
	cur  *scriptOp // the op being built (set by the pacing loop)
	out  [1]sync.Message
	// Build stamps of the traced pass, written inside Runner.Do.
	buildStart, buildEnd int64
	traced               bool
}

// build is the peer's Runner.Do closure: apply the scripted message to the
// local replica exactly as a locally generated operation would, and hand it
// to the link. The script's row ids are the simulation's, so the live run
// reproduces the reference state id for id.
func (p *peer) build(c *client.Client) ([]sync.Message, error) {
	if p.traced {
		p.buildStart = nowNs()
	}
	if err := c.Replica().Apply(p.cur.Msg); err != nil {
		return nil, err
	}
	p.out[0] = p.cur.Msg
	if p.traced {
		p.buildEnd = nowNs()
	}
	return p.out[:], nil
}

// runCollection drives one whole collection lifecycle on the real stack:
// new core and NetServer, the workers' joins, the script replayed in trace
// order with one op in flight, late joins at their marks, ComputePay,
// verification, shutdown. With limit > 0 only the first limit ops are
// replayed and the end-state checks are skipped (warm-up).
func (st *stack) runCollection(sc *script, limit int, t *tracer, keepStream bool, res *lifecycleRun) error {
	nOps := len(sc.ops)
	if limit > 0 && limit < nOps {
		nOps = limit
	}
	started := nowNs()
	ns, err := st.open(sc.spec)
	if err != nil {
		return err
	}
	var peers []*peer
	var pr *probe
	var wg gosync.WaitGroup
	shutdown := func() {
		ns.Shutdown()
		for _, p := range peers {
			p.leave()
		}
		if pr != nil {
			pr.close()
		}
		wg.Wait()
	}

	sentAt := make([]atomic.Int64, nOps)
	// Two slots per peer: on an aborted collection a waiter may ack the
	// current op and then report its closed link, and must never block.
	ack := make(chan error, 2*(len(sc.workers)+len(sc.lateAfter)))
	waiter := func(p *peer) {
		base := uint64(0)
		if p.from > 0 {
			base = sc.cum[p.from-1]
		}
		for k := p.from; k < nOps; k++ {
			if sc.ops[k].Worker == p.idx {
				continue // the pacing loop awaits an op's sender itself
			}
			// A peer's replica is at epoch 1 once its join snapshot is loaded.
			err := awaitEpoch(p.runner, 1+sc.cum[k]-base)
			if err == nil {
				p.lat = append(p.lat, nowNs()-sentAt[k].Load())
			}
			ack <- err
			if err != nil {
				return
			}
		}
	}
	addPeer := func(worker string, idx, from int) error {
		j, err := st.join(sc.spec.schema, worker, sc.spec.maxVotes, t.wrapSender())
		if err != nil {
			return err
		}
		p := &peer{joined: j, idx: idx, from: from, traced: t != nil}
		peers = append(peers, p)
		waitGroupGo(&wg, func() { waiter(p) })
		return nil
	}
	for i, w := range sc.workers {
		if err := addPeer(w, i, 0); err != nil {
			shutdown()
			return err
		}
	}
	var seg *traceSeg
	if t != nil {
		if pr, err = st.attachProbe(t, sc.spec.schema, keepStream); err != nil {
			shutdown()
			return err
		}
		index := make(map[opID]int, nOps)
		for k := 0; k < nOps; k++ {
			index[opID{sc.workers[sc.ops[k].Worker], sc.ops[k].Msg.Seq}] = k
		}
		seg = t.begin(nOps, func(worker string, seq int64) int {
			if k, ok := index[opID{worker, seq}]; ok {
				return k
			}
			return -1
		})
	}

	late := 0
	due := int64(0) // when the previous op completed; 0 after a join
	for k := 0; k < nOps; k++ {
		op := &sc.ops[k]
		p := peers[op.Worker]
		p.cur = op
		now := nowNs()
		if due > 0 {
			res.late.add(due, now)
		}
		sentAt[k].Store(now)
		if err := p.runner.Do(p.build); err != nil {
			shutdown()
			return fmt.Errorf("op %d: %w", k, err)
		}
		for range len(peers) - 1 {
			if err := <-ack; err != nil {
				shutdown()
				return fmt.Errorf("op %d undelivered: %w", k, err)
			}
		}
		// The sender is awaited here, not by its waiter: its own op moves
		// its replica without a pump wake-up, so only the Central Client
		// messages the op triggered (if any) are still to arrive.
		if err := awaitEpoch(p.runner, 1+sc.cum[k]); err != nil {
			shutdown()
			return fmt.Errorf("op %d: sender: %w", k, err)
		}
		due = nowNs()
		res.opNs += due - now
		if seg != nil {
			o := &seg.ops[k]
			o.sender, o.seq, o.sched, o.done = sc.workers[op.Worker], op.Msg.Seq, now, due
			o.buildStart, o.buildEnd = p.buildStart, p.buildEnd
		}
		for late < len(sc.lateAfter) && sc.lateAfter[late] == k && k+1 < nOps {
			if err := addPeer(fmt.Sprintf("late%d", late), -1, k+1); err != nil {
				shutdown()
				return err
			}
			late++
			due = 0
			if late == len(sc.lateAfter) && sc.visitors > 0 {
				resident := len(peers)
				if pr != nil {
					resident++
				}
				if err := st.visitorJoins(sc.spec.schema, sc.visitors, resident, &res.joins); err != nil {
					shutdown()
					return err
				}
			}
		}
	}
	res.ops += nOps

	if limit > 0 {
		if seg != nil {
			t.seg.Store(nil)
		}
		shutdown()
		return nil
	}

	// Collection end: every client hears Done, then compensation is computed.
	for _, p := range peers {
		if err := awaitClient(p.runner, (*client.Client).Done); err != nil {
			shutdown()
			return fmt.Errorf("%s never heard done: %w", p.worker, err)
		}
	}
	var alloc *pay.Allocation
	var payErr error
	var master string
	var done bool
	ns.WithCore(func(c *server.Core) { alloc, payErr = c.ComputePay() })
	finished := nowNs()
	res.collections = append(res.collections, finished-started)

	// Verification (not part of the measured wall time).
	ns.WithCore(func(c *server.Core) { master, done = c.Master().SnapshotText(), c.Done() })
	if !done {
		res.fail("core not done after the script")
	}
	if master != sc.reference {
		res.fail("master diverged from the set-up reference")
	}
	if payErr != nil {
		res.fail("ComputePay: %v", payErr)
	} else if err := checkPay(alloc, sc.spec.budget); err != nil {
		res.fail("%v", err)
	}
	for _, p := range peers {
		var text string
		p.runner.View(func(c *client.Client) { text = c.Replica().SnapshotText() })
		if text != sc.reference {
			res.fail("replica of %s diverged from the master", p.worker)
		}
		res.deliver = append(res.deliver, p.lat...)
		// The join metric is over late joins when the script has any (a
		// grown table's snapshot), over the initial joins otherwise.
		if isLate := p.idx < 0; isLate == (len(sc.lateAfter) > 0) {
			res.joins = append(res.joins, p.joinNs)
		}
	}
	if seg != nil {
		if err := t.end(seg, nOps); err != nil {
			res.fail("%v", err)
		}
	}

	stop := nowNs()
	shutdown()
	res.wallNs += (finished - started) + (nowNs() - stop)
	if pr != nil {
		if pr.cl.Replica().SnapshotText() != sc.reference {
			res.fail("probe replica diverged from the master")
		}
		res.probeDispatches += pr.dispatches
		res.msgs += pr.msgs
		if keepStream {
			res.stream = pr.stream
		}
	}
	return nil
}

// opID identifies an op on the wire: the sending worker and its Seq.
type opID struct {
	worker string
	seq    int64
}

// checkPay verifies the compensation invariants: the per-worker amounts add
// up to what was allocated, and no more than the budget was allocated.
func checkPay(a *pay.Allocation, budget float64) error {
	var sum float64
	for _, amt := range a.PerWorker {
		sum += amt
	}
	if math.Abs(sum-a.Allocated) > 1e-9 {
		return fmt.Errorf("pay: per-worker sum %v != allocated %v", sum, a.Allocated)
	}
	if a.Allocated > budget+1e-9 || a.Allocated <= 0 {
		return fmt.Errorf("pay: allocated %v of budget %v", a.Allocated, budget)
	}
	return nil
}

// warmLifecycle runs unmeasured collections so the measured phase starts on
// a warm scheduler, paced GC and grown buffers: about warmOps ops in total,
// as truncated collections when the script is longer than that.
func (st *stack) warmLifecycle(sc *script, warmOps int) error {
	var scratch lifecycleRun
	for scratch.ops < warmOps {
		if err := st.runCollection(sc, warmOps-scratch.ops, nil, false, &scratch); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// measureLifecycle repeats the collection lifecycle for about d, cycling
// through scripts, and returns what it measured. It runs whole cycles (every
// script weighs the same) and starts another only while the time left
// covers half of one, so the phase ends close to d.
func (st *stack) measureLifecycle(scripts []*script, d time.Duration, minBeyond int, t *tracer) (*lifecycleRun, error) {
	res := &lifecycleRun{}
	runtime.GC()
	m0 := mallocs()
	start := time.Now()
	var deliver0, ops0 int // where the open round began
	var wall0 int64
	for cycles := 1; ; cycles++ {
		for i, sc := range scripts {
			if err := st.runCollection(sc, 0, t, t != nil && cycles == 1 && i == 0, res); err != nil {
				return nil, err
			}
			if supports(len(res.deliver)-deliver0, 99, minBeyond) {
				res.ends = append(res.ends, len(res.deliver))
				res.rates = append(res.rates, float64(res.ops-ops0)/(float64(res.wallNs-wall0)/1e9))
				deliver0, ops0, wall0 = len(res.deliver), res.ops, res.wallNs
			}
		}
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(2*cycles) >= d {
			break
		}
	}
	res.mallocs = mallocs() - m0
	if len(res.collections) == 0 {
		return nil, errors.New("no collection completed")
	}
	return res, nil
}
