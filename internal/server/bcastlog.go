package server

import (
	"errors"
	"runtime"
	gosync "sync"
	"time"

	"crowdfill/internal/parkq"
	"crowdfill/internal/sync"
	"crowdfill/internal/transport"
)

// bcastLog is the server's sequenced broadcast plane: a bounded in-memory
// ring of broadcast records. Publishing appends one record per broadcast —
// O(1) regardless of how many clients are connected — and each connection
// follows the log through its own cursor, so the global server mutex never
// pays per-recipient fan-out costs.
//
// A client that cannot keep up is detected by cursor lag: once the log wraps
// past a cursor the lost records are unrecoverable, so the cursor fails with
// errCursorLagged and the connection is torn down (the model requires
// per-link FIFO, not global blocking — dropping the slow link preserves
// everyone else's delivery). Flushers blocked inside a transport send are
// evicted from the publishing side via an amortized scan (see evictLagged).
//
// Locking: the ring and connection registry are guarded by an RWMutex. Only
// publish/evict/detach/close take the write lock; flushers drain under the
// read lock, so many of them pulling one record cost overlapping shared
// acquisitions instead of serialized exclusive ones — this is what keeps
// publish latency flat as the client count grows. A cursor's position is
// owned by the one flusher holding its connection in flight (mutated under
// the read lock; the evictor inspects it under the write lock, which excludes
// all readers).
//
// Delivery runs through a shared flusher pool (DESIGN.md §12): register
// attaches a connection as a flushConn — a cursor plus the transport link —
// and a small fixed set of flusher workers drain dirty connections from a
// work queue, coalescing each drain into one SendPreparedBatch. drainBatch is
// the only way to follow the log: a flusher never waits on a cursor. A
// connection with nothing pending is parked: it holds no goroutine and costs
// only its flushConn struct. Wakeups are delegated to a dedicated dispatcher
// goroutine: publish posts a token on a 1-buffered channel and returns, and
// the dispatcher moves parked connections behind the head back onto the
// queue, off the publisher's critical path.
type bcastLog struct {
	mu     gosync.RWMutex //lint:nonblocking
	buf    []Broadcast
	head   uint64 // sequence number of the next record to publish
	closed bool

	nextEvictScan uint64        // head value that triggers the next lag scan
	notify        chan struct{} // 1-buffered dispatcher doorbell
	dispatchDone  chan struct{}

	// Flusher-pool state. conns is every registered flushConn (the lag scan
	// and shutdown walk it); parked holds the subset whose cursor was at the
	// head after their last flush. Both guarded by mu; the per-connection
	// flush state machine (flushConn.state) is too.
	conns    map[*flushConn]struct{}
	parked   []*flushConn
	fq       *parkq.Queue[*flushConn] // dirty connections; never nests with mu
	flushers gosync.WaitGroup
	metrics  *Metrics // nil disables instrumentation
}

// Flusher-pool tuning. The budget bounds how many records one flush round
// may drain, so a deeply-lagged connection cannot monopolize a flusher (it
// re-enters the queue behind everyone else). The write deadline is the
// stalled-socket backstop: cursor-lag eviction handles slow clients while
// traffic flows, but if publishing stops with a write still stuck, the
// deadline frees the flusher and drops the connection.
const (
	flushBudget        = 256
	flushWriteDeadline = 5 * time.Second
)

// poolSize sizes both worker pools, the flushers and the poll workers: one
// per CPU, with a floor of two so a single stalled write or slow core
// transition can never serialize all delivery or all inbound processing.
func poolSize() int {
	if n := runtime.GOMAXPROCS(0); n > 2 {
		return n
	}
	return 2
}

// flushConn states, guarded by bcastLog.mu. A connection is always in
// exactly one: parked (idle, in the parked list), queued (in the flush
// queue or being carried to it), in-flight (owned by one flusher), or gone
// (deregistered/evicted). Single ownership is what preserves per-connection
// record order across flush rounds.
const (
	fcQueued = iota
	fcInFlight
	fcParked
	fcGone
)

// flushConn is one pooled connection's write-side state: the transport link,
// its read position in the log, and the private join messages delivered
// before any log record. Only the owning flusher touches conn, pending and
// pos while the state is in-flight; lagged only flips under the write lock.
// The cursor follows the log until it lags or the connection is gone.
type flushConn struct {
	conn    transport.Conn
	id      string           // client id, for exclude filtering and log lines
	pending []*sync.Prepared // join snapshot; nil after the first flush
	state   int
	pos     uint64 // sequence number of the next record to deliver
	lagged  bool   // the log wrapped past pos: the cursor has stopped for good
	onEvict func() // run (own goroutine) when the publisher detects the lag
}

// defaultLogCapacity is how many broadcasts a client may fall behind before
// it is considered dead.
const defaultLogCapacity = 4096

var (
	errLogClosed     = errors.New("server: broadcast log closed")
	errCursorLagged  = errors.New("server: client cursor lagged behind broadcast log")
	errCursorStopped = errors.New("server: cursor stopped")
)

// newBcastLog builds the broadcast plane with its instrument set fixed at
// construction (nil is a no-op): the flusher and dispatcher goroutines
// started below can never observe a half-installed one.
func newBcastLog(capacity int, m *Metrics) *bcastLog {
	if capacity < 1 {
		capacity = 1
	}
	l := &bcastLog{
		buf:          make([]Broadcast, capacity),
		notify:       make(chan struct{}, 1),
		dispatchDone: make(chan struct{}),
		conns:        make(map[*flushConn]struct{}),
		fq:           parkq.New[*flushConn](m.queueDelta),
		metrics:      m,
	}
	l.nextEvictScan = uint64(capacity)
	for i := 0; i < poolSize(); i++ {
		l.flushers.Add(1)
		go l.flusher()
	}
	go l.dispatch()
	return l
}

// dispatch moves parked connections behind the head back onto the flush
// queue whenever records were published. Taking the write lock closes the
// check-then-park race: a flushConn either parks before the sweep (and is
// swept) or re-checks the head before parking. The sweep is O(parked), but
// every parked connection behind the head needs exactly one wakeup per
// idle→dirty transition.
func (l *bcastLog) dispatch() {
	defer close(l.dispatchDone)
	var wake []*flushConn
	for range l.notify {
		wake = wake[:0]
		l.mu.Lock()
		if len(l.parked) > 0 {
			keep := l.parked[:0]
			for _, fc := range l.parked {
				if fc.pos < l.head {
					fc.state = fcQueued
					wake = append(wake, fc)
				} else {
					keep = append(keep, fc)
				}
			}
			for i := len(keep); i < len(l.parked); i++ {
				l.parked[i] = nil
			}
			l.parked = keep
			l.metrics.poolSized(len(l.conns), len(l.parked))
		}
		l.mu.Unlock()
		l.fq.Push(wake...)
	}
}

// publish appends records to the log and rings the dispatcher. O(len(recs))
// plus an amortized-O(1) lag scan; never blocks on consumers.
func (l *bcastLog) publish(recs []Broadcast) {
	if len(recs) == 0 {
		return
	}
	start := l.metrics.now()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	n := uint64(len(l.buf))
	for _, r := range recs {
		l.buf[l.head%n] = r
		l.head++
	}
	head := l.head
	l.evictLagged()
	// Ring under the lock: close() also holds it to flip closed before
	// closing the channel, so a send can never hit a closed doorbell.
	select {
	case l.notify <- struct{}{}:
	default: // a wakeup is already pending; it covers these records too
	}
	l.mu.Unlock()
	l.metrics.publishDone(start, len(recs), head)
}

// evictLagged stops the cursors the log has wrapped past, invoking their
// eviction hooks (asynchronously — hooks close transport connections, which
// unblocks flushers stuck in a send). The connection stays registered until
// a teardown path detaches it and notes the drop. Scanning every capacity/2
// publishes keeps the amortized per-publish cost O(conns/capacity), i.e.
// constant for any log at least as large as the client count. Callers hold
// the write lock.
func (l *bcastLog) evictLagged() {
	if l.head < l.nextEvictScan {
		return
	}
	n := uint64(len(l.buf))
	l.nextEvictScan = l.head + n/2 + 1
	l.metrics.evictScanned()
	for fc := range l.conns {
		if !fc.lagged && l.head-fc.pos > n {
			fc.lagged = true
			if fc.onEvict != nil {
				go fc.onEvict()
			}
		}
	}
}

// close tears the whole write plane down: the flush queue wakes every
// flusher to exit, every
// registered connection's transport is closed (unblocking flushers stuck
// mid-send and failing the connections' reader loops), and the call returns
// only after the flushers and the dispatcher have exited — the
// goroutine-leak guarantee NetServer.Shutdown relies on.
func (l *bcastLog) close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	conns := make([]*flushConn, 0, len(l.conns))
	for fc := range l.conns {
		conns = append(conns, fc)
	}
	l.mu.Unlock()
	l.fq.Close()
	for _, fc := range conns {
		fc.conn.Close()
	}
	l.flushers.Wait()
	close(l.notify)
	<-l.dispatchDone
}

// drained reports whether every registered connection has flushed the
// whole log — parked with its cursor at the head — or the log is closed.
func (l *bcastLog) drained() bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.closed {
		return true
	}
	for fc := range l.conns {
		if fc.state != fcParked || fc.pos != l.head {
			return false
		}
	}
	return true
}

// drainBatch copies up to len(out) records past fc's cursor and advances it,
// without blocking: at the head it returns 0, nil. It is the only way to
// follow the log, and only the flusher holding fc in flight calls it.
func (l *bcastLog) drainBatch(fc *flushConn, out []Broadcast) (int, error) {
	l.mu.RLock()
	if fc.lagged || fc.state == fcGone {
		lagged := fc.lagged
		l.mu.RUnlock()
		if lagged {
			return 0, errCursorLagged
		}
		return 0, errCursorStopped
	}
	n := uint64(len(l.buf))
	if l.head-fc.pos > n {
		// The log wrapped past the cursor inside the publisher's scan window.
		// Marking needs the write lock; the evictor may have beaten us to it,
		// which is fine — the cursor reports errCursorLagged either way.
		l.mu.RUnlock()
		l.mu.Lock()
		if fc.state != fcGone {
			fc.lagged = true
		}
		l.mu.Unlock()
		return 0, errCursorLagged
	}
	k := 0
	for k < len(out) && fc.pos < l.head {
		out[k] = l.buf[fc.pos%n]
		fc.pos++
		k++
	}
	closed := l.closed
	l.mu.RUnlock()
	if k == 0 && closed {
		return 0, errLogClosed
	}
	return k, nil
}

// register attaches a connection to the flusher pool: its cursor pinned at
// the current head plus the private join messages to deliver before any log
// record. Callers hold NetServer.mu so the join point is exact (the snapshot
// in pending reflects every record before the cursor; the cursor sees every
// record after it). The connection starts in the queued state — it has the
// join messages to send — but is handed to the pool by a separate enqueue
// call, made after NetServer.mu is released, so the flush queue's lock never
// nests inside the server's. onEvict runs (on its own goroutine) if the
// publishing side detects cursor lag. A closed log refuses the connection:
// the flushConn comes back gone with open false, and the caller closes the
// transport once it holds no lock (closing writes a close frame).
func (l *bcastLog) register(conn transport.Conn, clientID string, pending []*sync.Prepared, onEvict func()) (fc *flushConn, open bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fc = &flushConn{conn: conn, id: clientID, pending: pending, state: fcQueued, pos: l.head, onEvict: onEvict}
	if l.closed {
		fc.state = fcGone
		return fc, false
	}
	l.conns[fc] = struct{}{}
	l.metrics.poolSized(len(l.conns), len(l.parked))
	return fc, true
}

// enqueue hands a freshly-registered connection to the pool. Must be called
// exactly once after register, outside any lock.
func (l *bcastLog) enqueue(fc *flushConn) {
	l.fq.Push(fc)
}

// deregister detaches a connection (reader-side teardown). Safe to call
// after an eviction already detached it; a queued or in-flight connection is
// released by its flusher when it observes the gone state or the lagged
// cursor. won reports whether this call performed the detach — exactly one
// caller wins, and the winner owns the structured drop note (the
// single-noter invariant behind the drop counters). lagged reports whether
// the cursor had fallen off the log, so the winner can attribute the drop
// to lag even when it observed only the secondary symptom (a send error on
// the transport the evictor closed, or a failed reader loop).
func (l *bcastLog) deregister(fc *flushConn) (won, lagged bool) {
	l.mu.Lock()
	won = l.detachLocked(fc)
	lagged = fc.lagged
	l.mu.Unlock()
	return won, lagged
}

// detachLocked moves a connection to the gone state — which stops its cursor
// — and removes it from the registry and the parked list. Idempotent — reports
// whether this call performed the transition; callers hold the write lock.
func (l *bcastLog) detachLocked(fc *flushConn) bool {
	if fc.state == fcGone {
		return false
	}
	if fc.state == fcParked {
		for i, p := range l.parked {
			if p == fc {
				l.parked[i] = l.parked[len(l.parked)-1]
				l.parked[len(l.parked)-1] = nil
				l.parked = l.parked[:len(l.parked)-1]
				break
			}
		}
	}
	fc.state = fcGone
	delete(l.conns, fc)
	l.metrics.poolSized(len(l.conns), len(l.parked))
	return true
}

// dropConn is the flusher-side eviction: close the transport (failing the
// connection's reader loop so both halves tear down), detach, and — if this
// call won the detach — note the drop. A send error on a cursor the
// publisher already evicted is re-attributed to lag: the evictor closed the
// transport, so the write failure is a symptom, not the cause. Any other
// send that failed because the link was already closed is a peer that hung
// up just before the flusher's last write: the reader side sees the same
// close and removes the client, and a healthy disconnect is not a drop.
func (l *bcastLog) dropConn(fc *flushConn, cause dropCause, err error) {
	fc.conn.Close()
	l.mu.Lock()
	won := l.detachLocked(fc)
	lagged := fc.lagged
	l.mu.Unlock()
	if !won {
		return
	}
	if lagged {
		l.metrics.noteDrop(dropLag, fc.id, "cursor lagged behind broadcast log")
		return
	}
	if cause == dropSendError && transport.IsClosed(err) {
		return
	}
	l.metrics.noteDrop(cause, fc.id, err.Error())
}

// flusher is one pool worker: it pulls dirty connections off the queue and
// flushes each one. Workers exit when the queue closes.
func (l *bcastLog) flusher() {
	defer l.flushers.Done()
	recs := make([]Broadcast, flushBudget)
	var preps []*sync.Prepared
	for {
		fc, ok := l.fq.Pop()
		if !ok {
			return
		}
		preps = l.flushOne(fc, recs, preps[:0])
	}
}

// flushOne runs one flush round for a connection: claim it, drain up to
// flushBudget records from its cursor, coalesce them (plus any pending join
// messages) into a single batched send, then park it (cursor at head) or
// requeue it (more records remain — behind every other dirty connection, so
// one deep-lagged client cannot starve the rest). The returned slice is the
// grown prepared-batch scratch for reuse. Any send error, deadline included,
// drops the connection: the stream may be mid-frame, and the model only
// requires per-link FIFO for links that stay up.
func (l *bcastLog) flushOne(fc *flushConn, recs []Broadcast, preps []*sync.Prepared) []*sync.Prepared {
	l.mu.Lock()
	if fc.state == fcGone || l.closed {
		l.mu.Unlock()
		return preps
	}
	fc.state = fcInFlight
	pending := fc.pending
	fc.pending = nil
	l.mu.Unlock()

	n, err := l.drainBatch(fc, recs)
	if err != nil {
		if err == errCursorLagged {
			l.dropConn(fc, dropLag, err)
		} else {
			// Stopped or closed: the reader-side teardown (or close) owns
			// the cleanup; just release ownership.
			l.deregister(fc)
		}
		return preps
	}
	batch := append(preps, pending...)
	for _, rec := range recs[:n] {
		if rec.Exclude != "" && rec.Exclude == fc.id {
			continue
		}
		batch = append(batch, rec.Prepared)
	}
	if len(batch) > 0 {
		fc.conn.SetWriteDeadline(time.Now().Add(flushWriteDeadline))
		err := fc.conn.SendPreparedBatch(batch)
		if err != nil {
			cause := dropSendError
			if transport.IsTimeout(err) {
				cause = dropWriteDeadline
			}
			l.dropConn(fc, cause, err)
			return batch[:0]
		}
	}

	l.mu.Lock()
	if fc.state != fcInFlight || l.closed || fc.lagged {
		// Deregistered, evicted, or shut down while we held it; whoever
		// flipped the state owns the cleanup.
		l.mu.Unlock()
		return batch[:0]
	}
	lag := l.head - fc.pos
	if lag > 0 {
		fc.state = fcQueued
		l.mu.Unlock()
		if len(batch) > 0 {
			l.metrics.flushDone(len(batch), lag)
		}
		l.fq.Push(fc)
		return batch[:0]
	}
	fc.state = fcParked
	l.parked = append(l.parked, fc)
	l.metrics.poolSized(len(l.conns), len(l.parked))
	l.mu.Unlock()
	if len(batch) > 0 {
		l.metrics.flushDone(len(batch), 0)
	}
	return batch[:0]
}
