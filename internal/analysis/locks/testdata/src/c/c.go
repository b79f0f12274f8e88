// Package c exercises the locks analyzer on the broadcast plane's shapes:
// blocking operations inside nonblocking critical sections, self-reentry,
// and nestings the outer lock does not declare. The policy is written on
// this package's own mutex fields, as in the real server.
package c

import (
	"encoding/json"
	"sync"
	"time"
)

// Conn mimics a transport connection.
type Conn struct{}

func (Conn) Send(v any) error                 { return nil }
func (Conn) SendPreparedBatch(v ...any) error { return nil }
func (Conn) Recv() (int, error)               { return 0, nil }
func (Conn) Close() error                     { return nil }

type bcastLog struct {
	mu   sync.RWMutex //lint:nonblocking
	cond *sync.Cond
	head uint64
}

func (l *bcastLog) publish() {
	l.mu.Lock()
	l.head++
	l.mu.Unlock()
}

func (l *bcastLog) headSeq() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.head
}

type NetServer struct {
	//lint:nonblocking
	//lint:before bcastLog.mu Recorder.mu
	mu    sync.Mutex
	log   *bcastLog
	conn  Conn
	ch    chan int
	logf  func(string, ...any)
	core  *Core
	index *TableIndex
	adj   *deltaAdj
	l     ProbableDeltaListener
	rec   *Recorder
}

// goodOrder acquires bcastLog.mu (through publish) under NetServer.mu: the
// declared order.
func (s *NetServer) goodOrder() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log.publish()
}

// badOrder acquires NetServer.mu inside a bcastLog.mu critical section.
func (l *bcastLog) badOrder(s *NetServer) {
	l.mu.Lock()
	s.mu.Lock() // want `lock ordering: acquiring NetServer.mu while holding bcastLog.mu`
	s.mu.Unlock()
	l.mu.Unlock()
}

// selfDeadlock calls a method that re-acquires the lock already held.
func (l *bcastLog) selfDeadlock() {
	l.mu.Lock()
	_ = l.headSeq() // want `call acquires bcastLog.mu while a bcastLog.mu critical section is open`
	l.mu.Unlock()
}

// sendUnderLock performs a channel send inside a nonblocking section.
func (s *NetServer) sendUnderLock() {
	s.mu.Lock()
	s.ch <- 1 // want `channel send inside a NetServer.mu critical section`
	s.mu.Unlock()
}

// sendAfterUnlock is fine: the send happens outside the section.
func (s *NetServer) sendAfterUnlock() {
	s.mu.Lock()
	s.mu.Unlock()
	s.ch <- 1
}

// recvUnderDeferredLock blocks on a receive while the deferred unlock still
// holds the lock.
func (s *NetServer) recvUnderDeferredLock() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-s.ch // want `channel receive inside a NetServer.mu critical section`
}

// nonBlockingSelect is the sanctioned doorbell ring: select with default.
func (s *NetServer) nonBlockingSelect() {
	s.mu.Lock()
	select {
	case s.ch <- 1:
	default:
	}
	s.mu.Unlock()
}

// blockingSelect lacks the default and parks under the lock.
func (s *NetServer) blockingSelect() {
	s.mu.Lock()
	select { // want `select without a default clause`
	case s.ch <- 1:
	}
	s.mu.Unlock()
}

// transportSendUnderLock writes to a connection inside the section.
func (s *NetServer) transportSendUnderLock() {
	s.mu.Lock()
	_ = s.conn.Send(1) // want `transport Send`
	s.mu.Unlock()
}

// jsonUnderLock encodes under the lock.
func (s *NetServer) jsonUnderLock(v any) {
	s.mu.Lock()
	_, _ = json.Marshal(v) // want `json.Marshal`
	s.mu.Unlock()
}

// sleepUnderLock stalls every publisher.
func (s *NetServer) sleepUnderLock() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want `time.Sleep inside a NetServer.mu critical section`
	s.mu.Unlock()
}

// logfUnderLock may block on log I/O.
func (s *NetServer) logfUnderLock() {
	s.mu.Lock()
	s.logf("under lock") // want `call through logf`
	s.mu.Unlock()
}

// condWaitIsAllowed: the designed follower wait releases the lock.
func (l *bcastLog) condWaitIsAllowed() {
	l.mu.RLock()
	for l.head == 0 {
		l.cond.Wait()
	}
	l.mu.RUnlock()
}

// closureNotUnderLock: a function literal built under the lock does not run
// under it.
func (s *NetServer) closureNotUnderLock() func() {
	s.mu.Lock()
	fn := func() { s.ch <- 1 }
	s.mu.Unlock()
	return fn
}

// branchUnlockThenBlock: a branch that unlocks before blocking is fine.
func (s *NetServer) branchUnlockThenBlock(stop bool) {
	s.mu.Lock()
	if stop {
		s.mu.Unlock()
		s.ch <- 1
		return
	}
	s.mu.Unlock()
}

// allowedEscapeHatch documents an intentional in-lock send.
func (s *NetServer) allowedEscapeHatch() {
	s.mu.Lock()
	s.ch <- 1 //lint:allow locks startup-only path, single-threaded before serving
	s.mu.Unlock()
}

// ProbableDeltaListener mirrors model.ProbableDeltaListener: the table
// index delivers deltas synchronously while flushing, and on the server
// every flush runs inside NetServer.mu (through Core.HandleBroadcast). No
// body is assumed to run under a lock; each is reached from one.
type ProbableDeltaListener interface {
	ProbableAdded(r *int)
	ProbableRemoved(r *int)
	IndexReset()
}

// deltaAdj mirrors the planner's delta engine, one listener.
type deltaAdj struct {
	ch   chan int
	logf func(string, ...any)
}

func (e *deltaAdj) ProbableAdded(r *int) { e.ch <- 1 }
func (e *deltaAdj) ProbableRemoved(*int) {}
func (e *deltaAdj) IndexReset()          { e.logf("reset") }

// compact runs under the server lock through the planner's repair.
func (e *deltaAdj) compact() {
	<-e.ch
}

// rebalance is never reached from a nonblocking section: no finding.
func (e *deltaAdj) rebalance() {
	e.ch <- 1
}

// otherListener is a second listener, also reached through the interface.
type otherListener struct {
	ch chan int
}

func (o *otherListener) ProbableAdded(*int)     {}
func (o *otherListener) ProbableRemoved(r *int) { o.ch <- 1 }
func (o *otherListener) IndexReset()            {}

// deltasUnderLock delivers index deltas inside the server's critical
// section: each listener body that blocks is reported at the call.
func (s *NetServer) deltasUnderLock(r *int) {
	s.mu.Lock()
	s.l.ProbableAdded(r)   // want `call to ProbableDeltaListener.ProbableAdded blocks — channel send inside a NetServer.mu critical section`
	s.l.ProbableRemoved(r) // want `call to ProbableDeltaListener.ProbableRemoved blocks — channel send inside a NetServer.mu critical section`
	s.l.IndexReset()       // want `call to ProbableDeltaListener.IndexReset blocks — call through logf`
	s.adj.compact()        // want `call to deltaAdj.compact blocks — channel receive`
	s.mu.Unlock()
}

// TableIndex mirrors the model package's index.
type TableIndex struct {
	ch chan int
}

func (x *TableIndex) flush() {
	select {
	case x.ch <- 1:
	}
}

// Probable is never reached from a nonblocking section: no finding.
func (x *TableIndex) Probable() {
	x.ch <- 1
}

// Core mirrors the server core: it has no mutex of its own; NetServer.mu
// serializes it.
type Core struct {
	planner *Planner
}

func (c *Core) HandleBroadcast() { c.planner.Repair() }

// Planner mirrors the constraint planner.
type Planner struct {
	conn Conn
}

func (p *Planner) Repair() { p.repairIncremental() }

func (p *Planner) repairIncremental() {
	_ = p.conn.Send(1)
}

// handleUnderLock runs the core's transition inside the server lock: the
// planner's blocking send, three calls down, is reported here with the
// whole chain.
func (s *NetServer) handleUnderLock() {
	s.mu.Lock()
	s.core.HandleBroadcast() // want `call to Core.HandleBroadcast blocks — transport Send \(blocks until the peer drains\) \(via Planner.Repair → Planner.repairIncremental\) inside a NetServer.mu critical section`
	s.index.flush()          // want `call to TableIndex.flush blocks — select without a default clause`
	s.mu.Unlock()
}

// Recorder mirrors the flight recorder: a short ring critical section, then
// the log sink outside it.
type Recorder struct {
	mu   sync.Mutex
	n    int
	logf func(string, ...any)
}

func (r *Recorder) Record() {
	r.mu.Lock()
	r.n++
	r.mu.Unlock()
	r.logf("event")
}

// recordUnderLock: a callee that takes a lock of its own is held to the
// rule like any other — Record's sink writes the log after its ring lock is
// released, still inside NetServer.mu.
func (s *NetServer) recordUnderLock() {
	s.mu.Lock()
	s.rec.Record() // want `call to Recorder.Record blocks — call through logf \(may block on log I/O\) inside a NetServer.mu critical section`
	s.mu.Unlock()
}

// ledger's mutex is not nonblocking: blocking under it is not flagged.
type ledger struct {
	mu sync.Mutex
	ch chan int
}

func (g *ledger) record() {
	g.mu.Lock()
	g.ch <- 1
	g.mu.Unlock()
}

// Queue mirrors parkq.Queue, the generic cond-parked work queue both worker
// pools instantiate. Its mutex is nonblocking and appears in no before
// entry: it must not nest with bcastLog.mu or Poller.mu in either direction.
// The call sites below go through instantiated methods — distinct objects
// from the generic declarations — and must still find the declaration's
// summary.
type Queue[T any] struct {
	mu   sync.Mutex //lint:nonblocking
	cond *sync.Cond
	q    []T
}

type flushConn struct {
	conn Conn
}

func (q *Queue[T]) push(item T) {
	q.mu.Lock()
	q.q = append(q.q, item)
	q.mu.Unlock()
}

func (q *Queue[T]) pop() T {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.q) == 0 {
		q.cond.Wait()
	}
	item := q.q[0]
	q.q = q.q[1:]
	return item
}

// Poller mirrors the readiness poller: its descriptor-table lock and its
// dispatch queue (another instantiation of Queue) do not nest either.
type Poller struct {
	mu sync.Mutex //lint:nonblocking
	q  *Queue[int]
}

// enqueueUnderTableLock pushes a ready descriptor while still holding the
// descriptor-table lock.
func (p *Poller) enqueueUnderTableLock(tok int) {
	p.mu.Lock()
	p.q.push(tok) // want `lock ordering: acquiring Queue.mu while holding Poller.mu`
	p.mu.Unlock()
}

// pushUnderLogLock enqueues dirty connections while still inside the
// broadcast log's critical section: the classic flusher-pool deadlock shape.
func (l *bcastLog) pushUnderLogLock(fq *Queue[*flushConn], fc *flushConn) {
	l.mu.Lock()
	fq.push(fc) // want `lock ordering: acquiring Queue.mu while holding bcastLog.mu`
	l.mu.Unlock()
}

// popUnderLogLock parks on the work queue's condition variable with the log
// lock held.
func (l *bcastLog) popUnderLogLock(fq *Queue[*flushConn]) *flushConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return fq.pop() // want `lock ordering: acquiring Queue.mu while holding bcastLog.mu`
}

// publishUnderQueueLock is the reverse nesting: also undeclared.
func (q *Queue[T]) publishUnderQueueLock(l *bcastLog) {
	q.mu.Lock()
	l.publish() // want `lock ordering: acquiring bcastLog.mu while holding Queue.mu`
	q.mu.Unlock()
}

// collectThenPush is the sanctioned pattern: gather dirty connections under
// the log lock, release it, then push to the queue lock-free.
func (l *bcastLog) collectThenPush(fq *Queue[*flushConn], parked []*flushConn) {
	var wake []*flushConn
	l.mu.Lock()
	wake = append(wake, parked...)
	l.mu.Unlock()
	for _, fc := range wake {
		fq.push(fc)
	}
}

// batchSendUnderQueueLock performs coalesced transport I/O while holding the
// work queue's mutex; flushers must claim the connection and release the
// queue before writing.
func (q *Queue[T]) batchSendUnderQueueLock(fc *flushConn) {
	q.mu.Lock()
	_ = fc.conn.SendPreparedBatch(1, 2) // want `transport SendPreparedBatch`
	q.mu.Unlock()
}

// batchSendUnderLogLock: the coalesced write is just as blocking under the
// log lock.
func (l *bcastLog) batchSendUnderLogLock(c Conn) {
	l.mu.Lock()
	_ = c.SendPreparedBatch(1) // want `transport SendPreparedBatch`
	l.mu.Unlock()
}

// batchSendLockFree is the flusher's real shape: drain state under the log
// lock, release, then write.
func (l *bcastLog) batchSendLockFree(c Conn) {
	l.mu.Lock()
	l.head++
	l.mu.Unlock()
	_ = c.SendPreparedBatch(1)
}
