package server

import (
	"errors"
	"runtime"
	gosync "sync"
	"testing"
	"time"

	"crowdfill/internal/constraint"
	"crowdfill/internal/metrics"
	"crowdfill/internal/model"
	"crowdfill/internal/sync"
	"crowdfill/internal/transport"
)

// recConn is a fake transport.Conn for pool tests: it records every batched
// send (as the prepared pointers delivered), blocks Recv until closed, and
// can gate or fail sends to stall a flusher deterministically.
type recConn struct {
	mu       gosync.Mutex
	batches  [][]*sync.Prepared
	sends    int           // SendPreparedBatch call count
	gate     chan struct{} // when non-nil, sends block until it closes
	failSend bool
	done     chan struct{}
	once     gosync.Once
}

func newRecConn() *recConn { return &recConn{done: make(chan struct{})} }

// poolStats reports the number of registered and parked connections.
func (l *bcastLog) poolStats() (conns, parked int) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.conns), len(l.parked)
}

func (c *recConn) Send(m sync.Message) error {
	return c.SendPreparedBatch([]*sync.Prepared{sync.NewPrepared(m)})
}

func (c *recConn) SendPreparedBatch(ps []*sync.Prepared) error {
	c.mu.Lock()
	gate, fail := c.gate, c.failSend
	c.sends++
	c.mu.Unlock()
	if fail {
		return errors.New("recConn: send failed")
	}
	if gate != nil {
		select {
		case <-gate:
		case <-c.done:
			return errors.New("recConn: closed mid-send")
		}
	}
	select {
	case <-c.done:
		return errors.New("recConn: closed")
	default:
	}
	c.mu.Lock()
	batch := make([]*sync.Prepared, len(ps))
	copy(batch, ps)
	c.batches = append(c.batches, batch)
	c.mu.Unlock()
	return nil
}

func (c *recConn) SetWriteDeadline(time.Time) error { return nil }

func (c *recConn) Recv() (sync.Message, error) {
	<-c.done
	return sync.Message{}, errors.New("recConn: closed")
}

func (c *recConn) RecvBatch(dst []sync.Message) (int, error) {
	_, err := c.Recv()
	return 0, err
}

func (c *recConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}

func (c *recConn) closed() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

func (c *recConn) snapshot() [][]*sync.Prepared {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([][]*sync.Prepared, len(c.batches))
	copy(out, c.batches)
	return out
}

// cursorLag reports how many records fc's cursor is behind the log head. The
// write lock excludes the flusher that owns the position.
func cursorLag(l *bcastLog, fc *flushConn) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head - fc.pos
}

func prepSeq(seq int64) *sync.Prepared {
	return sync.NewPrepared(sync.Message{Type: sync.MsgUpvote, Seq: seq})
}

// TestFlusherCoalescesBurst: a K-record publish burst to one parked
// connection arrives as exactly one SendPreparedBatch call carrying the K
// prepared messages in log order, with records excluded for this client
// filtered out. This is the acceptance-criterion coalescing guarantee
// (byte-level frame identity of a batch vs K individual sends is proven in
// wsock's TestWritePreparedBatchBytesIdentical).
func TestFlusherCoalescesBurst(t *testing.T) {
	l := newBcastLog(64, nil)
	defer l.close()
	rc := newRecConn()
	fc, _ := l.register(rc, "self", nil, nil)
	l.enqueue(fc)

	// The empty first flush parks the connection.
	waitFor(t, func() bool { _, parked := l.poolStats(); return parked == 1 })

	const k = 5
	recs := make([]Broadcast, 0, k+1)
	for i := 0; i < k; i++ {
		recs = append(recs, Broadcast{Prepared: prepSeq(int64(i))})
	}
	recs = append(recs, Broadcast{Prepared: prepSeq(999), Exclude: "self"})
	l.publish(recs)

	waitFor(t, func() bool { return len(rc.snapshot()) == 1 })
	got := rc.snapshot()[0]
	if len(got) != k {
		t.Fatalf("burst delivered as batch of %d, want %d (exclude filtered)", len(got), k)
	}
	for i, p := range got {
		if p.Message().Seq != int64(i) {
			t.Fatalf("batch[%d].Seq = %d, want %d", i, p.Message().Seq, i)
		}
	}
	rc.mu.Lock()
	sends := rc.sends
	rc.mu.Unlock()
	if sends != 1 {
		t.Fatalf("burst used %d sends, want 1 coalesced send", sends)
	}
}

// TestFlusherPoolOrdering: per-connection record order is preserved across
// many flush rounds — the concatenation of delivered batches is exactly the
// publish sequence, no gaps, no duplicates, no reordering.
func TestFlusherPoolOrdering(t *testing.T) {
	l := newBcastLog(4096, nil)
	defer l.close()
	rc := newRecConn()
	fc, _ := l.register(rc, "c1", nil, nil)
	l.enqueue(fc)

	const total = 1000
	seq := int64(0)
	for seq < total {
		burst := 1 + int(seq%7)
		recs := make([]Broadcast, 0, burst)
		for i := 0; i < burst && seq < total; i++ {
			recs = append(recs, Broadcast{Prepared: prepSeq(seq)})
			seq++
		}
		l.publish(recs)
	}

	waitFor(t, func() bool {
		n := 0
		for _, b := range rc.snapshot() {
			n += len(b)
		}
		return n == total
	})
	want := int64(0)
	for _, b := range rc.snapshot() {
		for _, p := range b {
			if p.Message().Seq != want {
				t.Fatalf("delivery out of order: got Seq %d, want %d", p.Message().Seq, want)
			}
			want++
		}
	}
}

// TestFlusherDetectsLagAndDrops exercises the flusher-side lag check: a
// connection stalled mid-send falls more than a log capacity behind inside
// the publisher's amortized-scan window, so it is the flusher's own
// drainBatch — not the publishing side's evictor — that detects the lag and
// drops the connection (closing the transport so the reader half fails too).
func TestFlusherDetectsLagAndDrops(t *testing.T) {
	l := newBcastLog(8, nil) // first publisher lag scan at head 8, next at 13
	defer l.close()
	rc := newRecConn()
	gate := make(chan struct{})
	rc.mu.Lock()
	rc.gate = gate
	rc.mu.Unlock()

	fc, _ := l.register(rc, "c1", nil, nil)
	l.enqueue(fc)
	waitFor(t, func() bool { _, parked := l.poolStats(); return parked == 1 })

	// One record: the flusher claims the connection, drains to pos 1, and
	// blocks in the gated send.
	l.publish([]Broadcast{{Prepared: prepSeq(0)}})
	waitFor(t, func() bool {
		rc.mu.Lock()
		defer rc.mu.Unlock()
		return rc.sends == 1
	})

	// Advance the head to 10: at the head-8 scan the cursor lags by only 7
	// (≤ capacity, not evicted) and the next scan is at 13, so head 10 has
	// the cursor 9 behind with no publisher eviction possible — only the
	// flusher can notice.
	for i := 1; i < 10; i++ {
		l.publish([]Broadcast{{Prepared: prepSeq(int64(i))}})
	}
	if got := cursorLag(l, fc); got != 9 {
		t.Fatalf("setup: cursor lag = %d, want 9", got)
	}
	close(gate)

	waitFor(t, func() bool { return rc.closed() })
	waitFor(t, func() bool { conns, _ := l.poolStats(); return conns == 0 })
	if !fc.lagged {
		t.Fatalf("cursor not marked lagged")
	}
}

// TestFlusherSendErrorTearsDownBothHalves: a send failure detected by the
// flusher closes the transport, which must fail the connection's reader loop
// so serve() unregisters the client — both halves tear down even though the
// client never sent or received another byte.
func TestFlusherSendErrorTearsDownBothHalves(t *testing.T) {
	s := kvSchema(t)
	core, err := New(Config{
		Schema:   s,
		Score:    model.MajorityShortcut(3),
		Template: constraint.Cardinality(s, 1),
		Budget:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ns := NewNetServer(core, nil)
	defer ns.Shutdown()

	rc := newRecConn()
	rc.failSend = true // the very first flush (join snapshot) fails
	go ns.ServeConn(rc, "w-broken")

	// The write half drops first (flusher closes the transport)...
	waitFor(t, func() bool { return rc.closed() })
	// ...and the reader half follows: serve's Recv fails, the client is
	// unregistered, and the pool forgets the connection.
	waitFor(t, func() bool {
		n := 0
		ns.WithCore(func(c *Core) { n = c.Status().Clients })
		return n == 0
	})
	waitFor(t, func() bool { conns, _ := ns.log.poolStats(); return conns == 0 })
}

// heldRecvConn delays the reader half: Recv waits for release before it
// looks at the link, so a test decides which half observes a close first.
type heldRecvConn struct {
	transport.Conn
	release chan struct{}
}

func (c *heldRecvConn) Recv() (sync.Message, error) {
	<-c.release
	return c.Conn.Recv()
}

// TestPeerCloseBeforeFlushIsNotADrop: a peer that hangs up right before the
// flusher's next write makes that write fail on an already-closed link, and
// the flusher — not the reader — wins the detach. That is still a healthy
// disconnect: no drop of any cause is counted, and the reader half, once it
// sees the same close, removes the client. (The race this pins made
// TestRejectCountedNotDropped count a send-error drop about 1 run in 1 000.)
func TestPeerCloseBeforeFlushIsNotADrop(t *testing.T) {
	cfg := cardinalityConfig(t, 2)
	cfg.Metrics = NewMetrics(metrics.NewRegistry(), metrics.NewRecorder(16))
	core, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ns := NewNetServer(core, nil)
	defer ns.Shutdown()

	near, far := transport.Pipe(64)
	held := &heldRecvConn{Conn: far, release: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		ns.ServeConn(held, "w1")
	}()
	// The join snapshot fits the pipe buffer; once it is flushed the
	// connection parks with its cursor at the head.
	waitFor(t, func() bool { _, parked := ns.log.poolStats(); return parked == 1 })

	near.Close()
	ns.log.publish([]Broadcast{{Prepared: prepSeq(1)}})
	// The flusher's send hits the closed pipe and detaches the connection
	// while the reader is still held back.
	waitFor(t, func() bool { conns, _ := ns.log.poolStats(); return conns == 0 })

	close(held.release)
	<-served
	n := -1
	ns.WithCore(func(c *Core) { n = c.Status().Clients })
	if n != 0 {
		t.Fatalf("clients after disconnect = %d, want 0 (the reader half owns RemoveClient)", n)
	}
	for dc, c := range cfg.Metrics.drops {
		if got := c.Value(); got != 0 {
			t.Errorf("%s drops = %d, want 0 for a healthy disconnect", dropCause(dc), got)
		}
	}
}

// TestShutdownNoGoroutineLeak: Shutdown with a mix of live, parked, and
// mid-flush connections reaps every server-side goroutine — the flusher
// pool, the dispatcher, and all reader loops return to baseline.
func TestShutdownNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()

	s := kvSchema(t)
	core, err := New(Config{
		Schema:   s,
		Score:    model.MajorityShortcut(3),
		Template: constraint.Cardinality(s, 1),
		Budget:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ns := NewNetServer(core, nil)

	// Three live pipe connections whose client halves drain (they will park
	// between publishes), plus one connection wedged mid-flush behind a gate.
	var clientWG gosync.WaitGroup
	for i := 0; i < 3; i++ {
		srv, cli := transport.Pipe(64)
		go ns.ServeConn(srv, "w-live")
		clientWG.Add(1)
		go func() {
			defer clientWG.Done()
			for {
				if _, err := cli.Recv(); err != nil {
					return
				}
			}
		}()
	}
	stuck := newRecConn()
	gate := make(chan struct{})
	stuck.mu.Lock()
	stuck.gate = gate
	stuck.mu.Unlock()
	go ns.ServeConn(stuck, "w-stuck")

	// Wait for all four to register; the stuck one is mid-flush on its join
	// snapshot, the others have flushed theirs and parked.
	waitFor(t, func() bool {
		n := 0
		ns.WithCore(func(c *Core) { n = c.Status().Clients })
		return n == 4
	})
	waitFor(t, func() bool { _, parked := ns.log.poolStats(); return parked >= 3 })

	ns.Shutdown()
	clientWG.Wait()
	waitFor(t, func() bool { return runtime.NumGoroutine() <= baseline })
	close(gate) // cleanliness; the flusher already aborted via conn close
}
