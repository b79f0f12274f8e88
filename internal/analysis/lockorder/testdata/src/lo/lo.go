// Package lo exercises the lockorder analyzer: the global
// lock-acquisition-order graph must be acyclic, and neither bcastLog.mu nor
// Poller.mu may nest with its work queue's Queue.mu in either direction (the
// collect-then-push rule).
package lo

import "sync"

// alpha → beta → gamma → alpha is a seeded three-lock ordering cycle: no two
// of the nestings is wrong by itself, but three threads at the three sites
// deadlock. The finding is anchored at the first witness edge (alpha → beta).
type alpha struct{ mu sync.Mutex }
type beta struct{ mu sync.Mutex }
type gamma struct{ mu sync.Mutex }

func (a *alpha) thenBeta(b *beta) {
	a.mu.Lock()
	b.mu.Lock() // want `lock-order cycle: alpha.mu → beta.mu → gamma.mu → alpha.mu`
	b.mu.Unlock()
	a.mu.Unlock()
}

func (b *beta) thenGamma(g *gamma) {
	b.mu.Lock()
	g.mu.Lock()
	g.mu.Unlock()
	b.mu.Unlock()
}

// lockUnlock lets the cycle's closing edge be observed transitively: the
// acquisition of alpha.mu reaches gamma's critical section through a call.
func (a *alpha) lockUnlock() {
	a.mu.Lock()
	a.mu.Unlock()
}

func (g *gamma) thenAlpha(a *alpha) {
	g.mu.Lock()
	a.lockUnlock()
	g.mu.Unlock()
}

// bcastLog and Queue mirror the broadcast plane's pair: nesting them is
// forbidden in either direction even before a reverse edge closes a cycle.
// Queue is generic like parkq.Queue, so every call below goes through an
// instantiated method — a different object from the declaration whose
// summary the edge must come from.
type bcastLog struct {
	mu   sync.Mutex
	head uint64
}

type Queue[T any] struct {
	mu sync.Mutex
	q  []T
}

func (q *Queue[T]) push(v T) {
	q.mu.Lock()
	q.q = append(q.q, v)
	q.mu.Unlock()
}

// pushUnderLogLock enqueues while still inside the log's critical section:
// the forbidden nesting, observed through push's derived summary.
func (l *bcastLog) pushUnderLogLock(q *Queue[int]) {
	l.mu.Lock()
	q.push(1) // want `forbidden nesting: Queue.mu acquired while holding bcastLog.mu`
	l.mu.Unlock()
}

// collectThenPush is the sanctioned discipline: gather under the log lock,
// release, then push — no edge, no finding.
func (l *bcastLog) collectThenPush(q *Queue[int], dirty []int) {
	var wake []int
	l.mu.Lock()
	wake = append(wake, dirty...)
	l.mu.Unlock()
	for _, v := range wake {
		q.push(v)
	}
}

// deferredPush runs at return time, after the explicit unlock: deferred
// calls are not order edges.
func (l *bcastLog) deferredPush(q *Queue[int]) {
	l.mu.Lock()
	defer q.push(1)
	l.mu.Unlock()
}

// goPush hands the work to a new goroutine that does not hold the log lock.
func (l *bcastLog) goPush(q *Queue[int]) {
	l.mu.Lock()
	go q.push(1)
	l.mu.Unlock()
}

// Poller and its dispatch queue are the read plane's pair: a second
// instantiation of the same Queue, pinned the same way.
type Poller struct {
	mu sync.Mutex
	q  *Queue[string]
}

func (p *Poller) enqueueUnderTableLock(tok string) {
	p.mu.Lock()
	p.q.push(tok) // want `forbidden nesting: Queue.mu acquired while holding Poller.mu`
	p.mu.Unlock()
}
