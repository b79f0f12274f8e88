// Package d exercises the interprocedural half of locks: blocking and lock
// acquisition found through chains of module calls via call-graph
// summaries, not just literally inside a critical section (package c covers
// the direct, single-function cases), and the checks on the directives
// themselves.
package d

import "sync"

type bcastLog struct {
	mu   sync.Mutex //lint:nonblocking
	head uint64
}

type NetServer struct {
	//lint:nonblocking
	//lint:before bcastLog.mu
	mu  sync.Mutex
	ch  chan int
	log *bcastLog
}

// emit blocks but holds nothing itself: no finding on the leaf.
func (s *NetServer) emit() { s.ch <- 1 }

// relay is a plain passthrough; the block is two calls deep from its callers.
func (s *NetServer) relay() { s.emit() }

// broadcastUnderLock smuggles the blocking send into the critical section
// through two module calls: reported transitively with the via chain.
func (s *NetServer) broadcastUnderLock() {
	s.mu.Lock()
	s.relay() // want `call to NetServer.relay blocks — channel send \(via NetServer.emit\)`
	s.mu.Unlock()
}

// relayAfterUnlock is fine: the chain runs outside the section.
func (s *NetServer) relayAfterUnlock() {
	s.mu.Lock()
	s.mu.Unlock()
	s.relay()
}

// headSeq opens and closes the log's critical section.
func (l *bcastLog) headSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head
}

// snapshot acquires transitively: its summary carries headSeq's acquire.
func (l *bcastLog) snapshot() uint64 { return l.headSeq() }

// doubleEntry re-enters the log lock through two calls: transitive
// self-reentry, found from the callee's derived acquire set.
func (l *bcastLog) doubleEntry() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapshot() // want `call acquires bcastLog.mu while a bcastLog.mu critical section is open`
}

// publish opens the log's critical section directly.
func (l *bcastLog) publish() {
	l.mu.Lock()
	l.head++
	l.mu.Unlock()
}

// publishWrapped hides the acquisition one call deeper.
func (l *bcastLog) publishWrapped() { l.publish() }

// goodOrderDeep nests NetServer.mu → bcastLog.mu through the wrapper: the
// declared order, no finding even though the acquire is transitive.
func (s *NetServer) goodOrderDeep() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log.publishWrapped()
}

// Queue mirrors the generic parkq.Queue; callers use an instantiation.
type Queue[T any] struct {
	mu sync.Mutex
	q  []T
}

func (q *Queue[T]) push(v T) {
	q.mu.Lock()
	q.q = append(q.q, v)
	q.mu.Unlock()
}

// pushWrapped hides the queue acquisition one call deeper.
func (q *Queue[T]) pushWrapped(v T) { q.push(v) }

// pushDeepUnderLogLock nests Queue.mu under bcastLog.mu through the wrapper:
// the undeclared nesting is derived from the callee's summary, two
// instantiated methods deep.
func (l *bcastLog) pushDeepUnderLogLock(fq *Queue[int]) {
	l.mu.Lock()
	fq.pushWrapped(1) // want `lock ordering: acquiring Queue.mu while holding bcastLog.mu \(via Queue.pushWrapped → Queue.push\)`
	l.mu.Unlock()
}

// goUnderLock launches the blocking chain in a new goroutine: the goroutine
// does not hold the caller's lock, so no finding.
func (s *NetServer) goUnderLock() {
	s.mu.Lock()
	go s.relay()
	s.mu.Unlock()
}

// deferredRelay defers the blocking chain: it runs at return time, after the
// explicit unlock below, so no finding.
func (s *NetServer) deferredRelay() {
	s.mu.Lock()
	defer s.relay()
	s.mu.Unlock()
}

// closureUnderLock builds (but does not run) the blocking chain under the
// lock: function literals are not call edges.
func (s *NetServer) closureUnderLock() func() {
	s.mu.Lock()
	fn := func() { s.relay() }
	s.mu.Unlock()
	return fn
}

// logT and srvT carry no directives at all: every nesting between two
// unannotated locks must still be declared.
type logT struct {
	mu   sync.Mutex
	head uint64
}

type srvT struct {
	mu  sync.Mutex
	log *logT
}

func (l *logT) acquireLeaf() {
	l.mu.Lock()
	l.head++
	l.mu.Unlock()
}

func (l *logT) wrap() { l.acquireLeaf() }

// orderSite nests logT.mu under srvT.mu through two calls.
func (s *srvT) orderSite() {
	s.mu.Lock()
	s.log.wrap() // want `lock ordering: acquiring logT.mu while holding srvT.mu \(via logT.wrap → logT.acquireLeaf\); declare //lint:before logT.mu on srvT.mu`
	s.mu.Unlock()
}

// orderDirect nests the same pair with a literal Lock call.
func (s *srvT) orderDirect() {
	s.mu.Lock()
	s.log.mu.Lock() // want `lock ordering: acquiring logT.mu while holding srvT.mu; declare`
	s.log.mu.Unlock()
	s.mu.Unlock()
}

// ledger declares an order no code exercises, and names a lock that does
// not exist.
type ledger struct {
	//lint:before logT.mu // want `stale //lint:before entry: nothing acquires logT.mu while holding ledger.mu`
	mu sync.Mutex
	//lint:before nosuch.mu // want `//lint:before names nosuch.mu, which is no mutex field`
	mu2 sync.Mutex
}

// counter.n is not a mutex: a lock directive here would guard nothing.
type counter struct {
	n int //lint:nonblocking // want `//lint:nonblocking is not on a mutex field`
}
