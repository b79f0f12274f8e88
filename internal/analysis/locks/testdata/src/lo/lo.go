// Package lo exercises the order half of locks: the declared before
// relation must be acyclic, and neither bcastLog.mu nor Poller.mu may nest
// with its work queue's Queue.mu in either direction (the collect-then-push
// rule) — no before entry declares those nestings.
package lo

import "sync"

// alpha → beta → gamma → alpha is a three-lock ordering cycle: no two of
// the nestings is wrong by itself, but three threads at the three sites
// deadlock. Each nesting is declared, so the cycle surfaces in the
// directives, reported at each entry on it.
type alpha struct {
	mu sync.Mutex //lint:before beta.mu // want `//lint:before cycle: alpha.mu → beta.mu → gamma.mu → alpha.mu`
}

type beta struct {
	mu sync.Mutex //lint:before gamma.mu // want `//lint:before cycle: beta.mu → gamma.mu → alpha.mu → beta.mu`
}

type gamma struct {
	mu sync.Mutex //lint:before alpha.mu // want `//lint:before cycle: gamma.mu → alpha.mu → beta.mu → gamma.mu`
}

// delta declares itself before itself: the shortest cycle (and a stale
// entry, since taking a lock twice is a self-deadlock, never a nesting).
type delta struct {
	mu sync.Mutex //lint:before delta.mu // want `//lint:before cycle: delta.mu → delta.mu` `stale //lint:before entry`
}

func (a *alpha) thenBeta(b *beta) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

func (b *beta) thenGamma(g *gamma) {
	b.mu.Lock()
	g.mu.Lock()
	g.mu.Unlock()
	b.mu.Unlock()
}

// lockUnlock lets the cycle's closing nesting be observed transitively: the
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
// rejected in either direction even before a reverse nesting closes a
// cycle. Queue is generic like parkq.Queue, so every call below goes
// through an instantiated method — a different object from the declaration
// whose summary the nesting must come from.
type bcastLog struct {
	mu   sync.Mutex //lint:nonblocking
	head uint64
}

type Queue[T any] struct {
	mu sync.Mutex //lint:nonblocking
	q  []T
}

func (q *Queue[T]) push(v T) {
	q.mu.Lock()
	q.q = append(q.q, v)
	q.mu.Unlock()
}

// pushUnderLogLock enqueues while still inside the log's critical section:
// the undeclared nesting, observed through push's derived summary.
func (l *bcastLog) pushUnderLogLock(q *Queue[int]) {
	l.mu.Lock()
	q.push(1) // want `lock ordering: acquiring Queue.mu while holding bcastLog.mu`
	l.mu.Unlock()
}

// collectThenPush is the sanctioned discipline: gather under the log lock,
// release, then push — no nesting, no finding.
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
// calls do not nest.
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
// instantiation of the same Queue, held to the same rule.
type Poller struct {
	mu sync.Mutex //lint:nonblocking
	q  *Queue[string]
}

func (p *Poller) enqueueUnderTableLock(tok string) {
	p.mu.Lock()
	p.q.push(tok) // want `lock ordering: acquiring Queue.mu while holding Poller.mu`
	p.mu.Unlock()
}
