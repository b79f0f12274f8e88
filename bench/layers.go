package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"syscall"
	"time"

	"crowdfill/internal/client"
	"crowdfill/internal/metrics"
	"crowdfill/internal/model"
	"crowdfill/internal/netpoll"
	"crowdfill/internal/replay"
	"crowdfill/internal/server"
	"crowdfill/internal/sync"
	"crowdfill/internal/wsock"
)

// layerInputs is what the traced live pass recorded for the replay
// measurements: each layer's public functions are then timed
// single-threaded on the inputs this workload actually produced.
type layerInputs struct {
	spec    collectionSpec
	clients []string       // client ids the core replay registers
	pre     []sentMsg      // replayed untimed before ops (the fan-out seeding fills)
	ops     []sentMsg      // op messages in arrival order
	stream  []sync.Message // one peer's receive stream; stream[0] is the join snapshot
}

// maxReplayOps bounds the core replay of a saturated segment's ops.
const maxReplayOps = 20000

// repeatFor calls fn until budget is spent (at least once) and returns the
// number of calls.
func repeatFor(budget time.Duration, fn func()) int {
	start := time.Now()
	n := 0
	for {
		fn()
		n++
		if time.Since(start) >= budget {
			return n
		}
	}
}

// coreLayer is the server core replayed on a fresh Core: per-message
// HandleBroadcast times and the costs that ride on them.
type coreLayer struct {
	handle      []int64 // ns per HandleBroadcast
	satisfiedUs float64 // mean Template.SatisfiedBy(FinalTable) at the 25/50/75/100 % marks
	addClientUs float64 // Core.AddClient on the end-of-run table (uncached snapshot)
	payUs       float64 // Core.ComputePay at the end
	auditUs     float64 // replay.Run over the run's own trace + CC log
	augments    float64 // augmenting-path searches per message
}

func replayCore(in *layerInputs, budget time.Duration) (*coreLayer, error) {
	out := &coreLayer{}
	var satNs, addNs, payNs, auditNs []float64
	var firstErr error
	once := func() {
		// A private instrument set: the replayed core pays the same
		// instrumentation as the live one without touching the run's registry.
		met := server.NewMetrics(metrics.NewRegistry(), metrics.NewRecorder(16))
		core, err := in.spec.newCore(met)
		if err != nil {
			firstErr = err
			return
		}
		for _, id := range in.clients {
			core.AddClient(id, id)
		}
		for _, m := range in.pre {
			if _, err := core.HandleBroadcast(m.worker, m.msg); err != nil {
				firstErr = fmt.Errorf("core replay: seeding: %w", err)
				return
			}
		}
		tmpl := core.Planner().Template()
		marks := [4]int{len(in.ops) / 4, len(in.ops) / 2, 3 * len(in.ops) / 4, len(in.ops)}
		mark := 0
		for k, m := range in.ops {
			t0 := nowNs()
			_, err := core.HandleBroadcast(m.worker, m.msg)
			out.handle = append(out.handle, nowNs()-t0)
			if err != nil {
				firstErr = fmt.Errorf("core replay: op %d: %w", k, err)
				return
			}
			for mark < len(marks) && k+1 == marks[mark] {
				final := core.FinalTable()
				t0 := nowNs()
				tmpl.SatisfiedBy(final)
				satNs = append(satNs, float64(nowNs()-t0))
				mark++
			}
		}
		t0 := nowNs()
		core.AddClient("late", "late")
		addNs = append(addNs, float64(nowNs()-t0))
		t0 = nowNs()
		_, err = core.ComputePay()
		payNs = append(payNs, float64(nowNs()-t0))
		if err != nil {
			firstErr = fmt.Errorf("core replay: ComputePay: %w", err)
			return
		}
		t0 = nowNs()
		_, err = replay.Run(replay.Input{
			Schema: in.spec.schema, Score: in.spec.score, Budget: in.spec.budget, Scheme: in.spec.scheme,
			Trace: core.Trace(), CCLog: core.CCLog(), JoinTime: core.JoinTimes(),
		})
		auditNs = append(auditNs, float64(nowNs()-t0))
		if err != nil {
			firstErr = fmt.Errorf("core replay: audit: %w", err)
			return
		}
		out.augments = float64(core.RepairStats().Augments) / float64(max(1, len(in.ops)))
	}
	repeatFor(budget, func() {
		if firstErr == nil {
			once()
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	mean := func(vs []float64) float64 {
		var s float64
		for _, v := range vs {
			s += v
		}
		return s / float64(max(1, len(vs))) / 1e3
	}
	out.satisfiedUs, out.addClientUs = mean(satNs), medianFloat(addNs)/1e3
	out.payUs, out.auditUs = medianFloat(payNs)/1e3, medianFloat(auditNs)/1e3
	return out, nil
}

// syncLayer is the codec and the replica timed on the recorded receive
// stream, plus the model index's share and the client runtime's handling.
type syncLayer struct {
	encodeNs, decodeNs, wireBytes, applyNs, indexNs, clientHandleNs float64 // per message
	snapEncodeUs, snapLoadUs, snapBytes                             float64
	payloads                                                        [][]byte // the stream's encodings (wire-layer input)
}

func replaySync(in *layerInputs, budget time.Duration) (*syncLayer, error) {
	if len(in.stream) < 2 || in.stream[0].Type != sync.MsgSnapshot {
		return nil, errors.New("sync replay: no recorded stream")
	}
	snap, msgs := in.stream[0], in.stream[1:]
	out := &syncLayer{}
	perMsg := func(total time.Duration, passes int) float64 {
		return float64(total) / float64(passes*len(msgs))
	}

	var buf []byte
	start := time.Now()
	n := repeatFor(budget/4, func() {
		for i := range msgs {
			buf = sync.AppendMessage(buf[:0], msgs[i])
		}
	})
	out.encodeNs = perMsg(time.Since(start), n)

	var bytes int
	for i := range msgs {
		p := sync.AppendMessage(nil, msgs[i])
		out.payloads = append(out.payloads, p)
		bytes += len(p)
	}
	out.wireBytes = float64(bytes) / float64(len(msgs))

	var derr error
	start = time.Now()
	n = repeatFor(budget/4, func() {
		var m sync.Message
		for _, p := range out.payloads {
			if err := sync.DecodeMessageInto(p, &m); err != nil {
				derr = err
			}
		}
	})
	out.decodeNs = perMsg(time.Since(start), n)
	if derr != nil {
		return nil, fmt.Errorf("sync replay: decode: %w", derr)
	}

	// Replica apply, with and without the table index observing it. Each
	// pass needs a fresh replica (the stream is not idempotent); only the
	// apply loop is timed.
	var last *sync.Replica
	apply := func(indexed bool) (float64, error) {
		var total time.Duration
		var aerr error
		passes := repeatFor(budget/4, func() {
			rep := sync.NewReplica(in.spec.schema)
			rep.LoadSnapshot(snap.Snapshot)
			var idx *model.TableIndex
			if indexed {
				idx = model.NewTableIndex(rep.Table(), in.spec.score)
				rep.SetObserver(idx)
			}
			t0 := time.Now()
			for i := range msgs {
				if err := rep.Apply(msgs[i]); err != nil {
					aerr = err
				}
				if idx != nil {
					idx.Version() // flush, as the core's completion check does per message
				}
			}
			total += time.Since(t0)
			last = rep
		})
		return perMsg(total, passes), aerr
	}
	var err error
	if out.applyNs, err = apply(false); err != nil {
		return nil, fmt.Errorf("sync replay: apply: %w", err)
	}
	withIndex, err := apply(true)
	if err != nil {
		return nil, fmt.Errorf("sync replay: indexed apply: %w", err)
	}
	out.indexNs = withIndex - out.applyNs

	var herr error
	var total time.Duration
	n = repeatFor(budget/4, func() {
		cl, err := client.New(client.Config{ID: "replay", Worker: "replay", Schema: in.spec.schema})
		if err == nil {
			err = cl.HandleServer(snap)
		}
		t0 := time.Now()
		if err == nil {
			err = cl.HandleServerBatch(msgs)
		}
		total += time.Since(t0)
		if err != nil {
			herr = err
		}
	})
	out.clientHandleNs = perMsg(total, n)
	if herr != nil {
		return nil, fmt.Errorf("client replay: %w", herr)
	}

	// Join snapshot of the end-of-run table: what a late joiner pays.
	end := sync.Message{Type: sync.MsgSnapshot, Snapshot: last.TakeSnapshot()}
	var enc []byte
	start = time.Now()
	n = repeatFor(budget/8, func() { enc = sync.AppendMessage(enc[:0], end) })
	out.snapEncodeUs = float64(time.Since(start)) / float64(n) / 1e3
	out.snapBytes = float64(len(enc))
	start = time.Now()
	n = repeatFor(budget/8, func() {
		var m sync.Message
		if err := sync.DecodeMessageInto(enc, &m); err != nil {
			derr = err
			return
		}
		sync.NewReplica(in.spec.schema).LoadSnapshot(m.Snapshot)
	})
	out.snapLoadUs = float64(time.Since(start)) / float64(n) / 1e3
	if derr != nil {
		return nil, fmt.Errorf("sync replay: snapshot: %w", derr)
	}
	return out, nil
}

// wireLayer is the WebSocket frame layer timed over a loopback pair with
// the run's payload sizes.
type wireLayer struct {
	writeNs, writeBatch16Ns, readBlockNs, readPollNs float64 // per frame
}

// wirePair opens a loopback WebSocket pair: a server-role and a client-role
// connection.
func wirePair() (srv, cli *wsock.Conn, closeFn func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	up := make(chan *wsock.Conn, 1) // one upgrade per pair
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if c, uerr := wsock.Upgrade(w, r); uerr == nil {
			up <- c
		}
	})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // ErrServerClosed on close
	}()
	stop := func() {
		_ = hs.Close()
		<-served
	}
	cli, err = wsock.Dial("ws://" + ln.Addr().String() + "/")
	if err != nil {
		stop()
		return nil, nil, nil, err
	}
	select {
	case srv = <-up:
	case <-time.After(5 * time.Second):
		cli.Close()
		stop()
		return nil, nil, nil, errors.New("wire pair: upgrade timed out")
	}
	return srv, cli, func() { srv.Close(); cli.Close(); stop() }, nil
}

// wireChunk is how many frames are written ahead of a timed read: small
// enough (≈40 KB at the usual payload sizes) to sit in the socket buffers.
const wireChunk = 256

func replayWire(payloads [][]byte, budget time.Duration) (*wireLayer, error) {
	srv, cli, closeFn, err := wirePair()
	if err != nil {
		return nil, err
	}
	defer closeFn()
	frames := make([]*wsock.PreparedFrame, wireChunk)
	for i := range frames {
		frames[i] = wsock.NewPreparedText(payloads[i%len(payloads)])
	}
	out := &wireLayer{}
	var werr, rerr error
	// Each round writes wireChunk frames (timed per write call), then
	// reads them back on the client (timed per read): the reads find every
	// byte already queued, so neither side's time includes waiting.
	round := func(write func() error, read func() error) (w, r time.Duration) {
		t0 := time.Now()
		if err := write(); err != nil {
			werr = err
		}
		w = time.Since(t0)
		t0 = time.Now()
		if err := read(); err != nil {
			rerr = err
		}
		return w, time.Since(t0)
	}
	single := func() error {
		for _, f := range frames {
			if err := srv.WritePrepared(f); err != nil {
				return err
			}
		}
		return nil
	}
	batched := func() error {
		for i := 0; i < len(frames); i += 16 {
			if err := srv.WritePreparedBatch(frames[i : i+16]); err != nil {
				return err
			}
		}
		return nil
	}
	blocking := func() error {
		for range frames {
			if _, err := cli.ReadTextLease(); err != nil {
				return err
			}
		}
		return nil
	}
	var wTot, rTot time.Duration
	n := repeatFor(budget/4, func() {
		w, r := round(single, blocking)
		wTot, rTot = wTot+w, rTot+r
	})
	out.writeNs = float64(wTot) / float64(n*wireChunk)
	out.readBlockNs = float64(rTot) / float64(n*wireChunk)

	wTot = 0
	n = repeatFor(budget/4, func() {
		w, _ := round(batched, blocking)
		wTot += w
	})
	out.writeBatch16Ns = float64(wTot) / float64(n*wireChunk)

	if _, err := cli.StartPoll(); err != nil {
		return nil, fmt.Errorf("wire replay: client-role poll mode unsupported: %w", err)
	}
	scratch := make([]byte, 32<<10)
	got := 0
	count := func([]byte) error { got++; return nil }
	polled := func() error {
		deadline := time.Now().Add(5 * time.Second)
		for got = 0; got < wireChunk; {
			if _, err := cli.PollRead(scratch, count); err != nil {
				return err
			}
			if time.Now().After(deadline) {
				return errors.New("poll read stalled")
			}
		}
		return nil
	}
	rTot = 0
	n = repeatFor(budget/4, func() {
		_, r := round(batched, polled)
		rTot += r
	})
	out.readPollNs = float64(rTot) / float64(n*wireChunk)
	if werr != nil || rerr != nil {
		return nil, fmt.Errorf("wire replay: write %v, read %v", werr, rerr)
	}
	return out, nil
}

// replayDispatch times the readiness poller's dispatch hop on an own
// Poller: one byte written to a registered loopback socket → the run
// callback entered. Returns the p50 in µs.
func replayDispatch(budget time.Duration) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	wr, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer wr.Close()
	rd, err := ln.Accept()
	if err != nil {
		return 0, err
	}
	defer rd.Close()
	rc, err := rd.(*net.TCPConn).SyscallConn()
	if err != nil {
		return 0, err
	}
	p, err := netpoll.New(1, nil)
	if err != nil {
		return 0, err
	}
	defer p.Close()
	entered := make(chan int64, 1) // one byte in flight at a time
	var d *netpoll.Desc
	d, err = p.Register(rc, func(scratch []byte) {
		at := nowNs()
		n := 0
		_ = rc.Read(func(fd uintptr) bool { // EAGAIN just means the kick found nothing
			n, _ = syscall.Read(int(fd), scratch)
			return true
		})
		if n > 0 {
			entered <- at
		}
		_ = d.Rearm() // a failed re-arm shows as the timeout below
	})
	if err != nil {
		return 0, err
	}
	p.Kick(d)
	var samples []int64
	var ferr error
	one := []byte{1}
	repeatFor(budget/2, func() {
		if ferr != nil {
			return
		}
		t0 := nowNs()
		if _, err := wr.Write(one); err != nil {
			ferr = err
			return
		}
		select {
		case at := <-entered:
			samples = append(samples, at-t0)
		case <-time.After(2 * time.Second):
			ferr = errors.New("dispatch replay: callback never ran")
		}
	})
	p.Deregister(d)
	if ferr != nil {
		return 0, ferr
	}
	return summarize(samples, 0.5).P50 / 1e3, nil
}

// snapshotUs times Registry.Snapshot on the run's registry.
func snapshotUs(reg *metrics.Registry, budget time.Duration) float64 {
	start := time.Now()
	n := repeatFor(budget/8, func() { reg.Snapshot() })
	return float64(time.Since(start)) / float64(n) / 1e3
}

// regDelta reads the program's own registry over a window: counters and
// histograms as after − before.
type regDelta struct{ before, after metrics.Snapshot }

func (d regDelta) counter(name string) float64 {
	find := func(s metrics.Snapshot) uint64 {
		for _, c := range s.Counters {
			if c.Name == name {
				return c.Value
			}
		}
		return 0
	}
	return float64(find(d.after) - find(d.before))
}

// counterPrefix sums every counter whose name starts with prefix (a
// labelled family).
func (d regDelta) counterPrefix(prefix string) float64 {
	var sum float64
	for _, c := range d.after.Counters {
		if strings.HasPrefix(c.Name, prefix) {
			sum += d.counter(c.Name)
		}
	}
	return sum
}

// hist returns the window's histogram: bucket, count and sum deltas.
func (d regDelta) hist(name string) metrics.HistogramValue {
	find := func(s metrics.Snapshot) (metrics.HistogramValue, bool) {
		for _, h := range s.Histograms {
			if h.Name == name {
				return h, true
			}
		}
		return metrics.HistogramValue{}, false
	}
	a, ok := find(d.after)
	if !ok {
		return metrics.HistogramValue{}
	}
	out := metrics.HistogramValue{Name: name, Count: a.Count, Sum: a.Sum, Buckets: append([]metrics.BucketValue(nil), a.Buckets...)}
	if b, ok := find(d.before); ok {
		out.Count -= b.Count
		out.Sum -= b.Sum
		for i := range out.Buckets {
			out.Buckets[i].Count -= b.Buckets[i].Count
		}
	}
	return out
}

func histMean(h metrics.HistogramValue) float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}
